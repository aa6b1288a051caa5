#include "src/callpath/gprof_report.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace whodunit::callpath {

std::vector<GprofEntry> BuildGprofEntries(const CallingContextTree& cct) {
  std::map<FunctionId, GprofEntry> entries;
  std::map<std::pair<FunctionId, FunctionId>, GprofArc> arcs;
  constexpr FunctionId kRoot = 0xffffffffu;

  for (NodeIndex i = 1; i < cct.size(); ++i) {
    const auto& node = cct.node(i);
    GprofEntry& entry = entries[node.function];
    entry.function = node.function;
    entry.self += node.cpu_time;
    entry.children += cct.InclusiveCpuTime(i) - node.cpu_time;
    entry.calls += node.calls;

    const FunctionId caller =
        node.parent == cct.root() ? kRoot : cct.node(node.parent).function;
    if (caller != kRoot) {
      GprofArc& arc = arcs[{caller, node.function}];
      arc.caller = caller;
      arc.callee = node.function;
      arc.calls += node.calls;
      arc.callee_inclusive += cct.InclusiveCpuTime(i);
    }
  }

  for (const auto& [key, arc] : arcs) {
    entries[arc.callee].callers.push_back(arc);
    entries[arc.caller].callees.push_back(arc);
  }

  std::vector<GprofEntry> out;
  out.reserve(entries.size());
  for (auto& [fn, entry] : entries) {
    std::sort(entry.callers.begin(), entry.callers.end(),
              [](const GprofArc& a, const GprofArc& b) {
                return a.callee_inclusive > b.callee_inclusive;
              });
    std::sort(entry.callees.begin(), entry.callees.end(),
              [](const GprofArc& a, const GprofArc& b) {
                return a.callee_inclusive > b.callee_inclusive;
              });
    out.push_back(std::move(entry));
  }
  std::sort(out.begin(), out.end(),
            [](const GprofEntry& a, const GprofEntry& b) { return a.self > b.self; });
  return out;
}

std::string RenderGprofReport(const CallingContextTree& cct, const FunctionRegistry& registry,
                              size_t max_entries) {
  std::vector<GprofEntry> entries = BuildGprofEntries(cct);
  const double total = static_cast<double>(cct.TotalCpuTime());
  std::ostringstream out;

  out << "Flat profile:\n";
  out << "  %   cumulative   self              \n";
  out << " time   seconds   seconds    calls  name\n";
  double cumulative = 0;
  size_t rows = 0;
  for (const GprofEntry& e : entries) {
    if (rows++ >= max_entries) {
      break;
    }
    cumulative += sim::ToSeconds(e.self);
    out << "  " << (total > 0 ? 100.0 * static_cast<double>(e.self) / total : 0.0) << "  "
        << cumulative << "  " << sim::ToSeconds(e.self) << "  " << e.calls << "  "
        << registry.Name(e.function) << "\n";
  }

  out << "\nCall graph:\n";
  rows = 0;
  for (const GprofEntry& e : entries) {
    if (rows++ >= max_entries) {
      break;
    }
    for (const GprofArc& arc : e.callers) {
      out << "    <- " << registry.Name(arc.caller) << " (" << arc.calls << " calls, "
          << sim::ToMillis(arc.callee_inclusive) << "ms)\n";
    }
    out << "[" << registry.Name(e.function) << "] self=" << sim::ToMillis(e.self)
        << "ms children=" << sim::ToMillis(e.children) << "ms calls=" << e.calls << "\n";
    for (const GprofArc& arc : e.callees) {
      out << "    -> " << registry.Name(arc.callee) << " (" << arc.calls << " calls, "
          << sim::ToMillis(arc.callee_inclusive) << "ms)\n";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace whodunit::callpath
