#include "src/vm/interpreter.h"

namespace whodunit::vm {

// The execute loop lives in the header as the ExecuteWith template so
// callers can instantiate it on concrete observer types (statically
// bound hooks). This TU pins the hookless instantiation behind
// Execute() so every other TU can link against it instead of
// re-instantiating.
template ExecResult Interpreter::ExecuteWith<Interpreter::NoObserver>(
    const Program&, ThreadId, CpuState&, Memory&, Interpreter::NoObserver*, Mode, int64_t);

}  // namespace whodunit::vm
