// gprof-style call-graph report over a CCT.
//
// The paper contrasts Whodunit with gprof (§8.4: "Such separation of
// resource utilization at MySQL would not have been possible by using
// a conventional profiler, e.g., gprof"). This renderer produces the
// conventional view — a flat profile plus caller/callee arcs with
// self/children attribution — from the same data, so examples and
// benches can show side by side what the conventional profiler reports
// and what the transactional profile adds.
#ifndef SRC_CALLPATH_GPROF_REPORT_H_
#define SRC_CALLPATH_GPROF_REPORT_H_

#include <string>
#include <vector>

#include "src/callpath/cct.h"
#include "src/callpath/function_registry.h"

namespace whodunit::callpath {

struct GprofArc {
  FunctionId caller;
  FunctionId callee;
  uint64_t calls = 0;
  sim::SimTime callee_inclusive = 0;  // time in callee (and below) via this arc
};

struct GprofEntry {
  FunctionId function;
  sim::SimTime self = 0;      // exclusive time
  sim::SimTime children = 0;  // inclusive minus exclusive
  uint64_t calls = 0;
  std::vector<GprofArc> callers;  // arcs into this function
  std::vector<GprofArc> callees;  // arcs out of this function
};

// Collapses a CCT (or several merged CCTs) into gprof's call-graph
// form: per-function totals and caller/callee arcs. Context
// sensitivity beyond one level is lost — which is the point.
std::vector<GprofEntry> BuildGprofEntries(const CallingContextTree& cct, const PathTree& paths);

// Classic two-part listing: flat profile, then the call graph.
std::string RenderGprofReport(const CallingContextTree& cct, const PathTree& paths,
                              const FunctionRegistry& registry, size_t max_entries = 20);

}  // namespace whodunit::callpath

#endif  // SRC_CALLPATH_GPROF_REPORT_H_
