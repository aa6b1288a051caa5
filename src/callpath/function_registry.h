// Function name <-> id registry shared by a profiling domain.
//
// Whodunit's core is a call-path profiler (the paper builds on csprof);
// every procedure the applications execute is interned here once and
// referenced by FunctionId everywhere else. Id 0 is the empty name,
// which no procedure has; it is the function of a CCT's root node.
#ifndef SRC_CALLPATH_FUNCTION_REGISTRY_H_
#define SRC_CALLPATH_FUNCTION_REGISTRY_H_

#include "src/util/symbol_table.h"

namespace whodunit::callpath {

using FunctionId = util::SymId;
using FunctionRegistry = util::SymbolTable;

}  // namespace whodunit::callpath

#endif  // SRC_CALLPATH_FUNCTION_REGISTRY_H_
