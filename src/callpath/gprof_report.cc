#include "src/callpath/gprof_report.h"

#include <algorithm>
#include <sstream>
#include <tuple>

namespace whodunit::callpath {

std::vector<GprofEntry> BuildGprofEntries(const CallingContextTree& cct, const PathTree& paths) {
  const std::vector<PathCounters> inclusive = cct.Inclusive(paths);
  // Indexed by FunctionId; function 0 (no procedure's) marks no entry.
  std::vector<GprofEntry> by_fn;
  std::vector<GprofArc> arcs;
  for (PathId p = 1; p < cct.id_limit(); ++p) {
    if (!cct.holds(p)) {
      continue;
    }
    const PathCounters& c = cct.at(p);
    const FunctionId f = paths.function(p);
    if (f >= by_fn.size()) {
      by_fn.resize(f + 1);
    }
    GprofEntry& entry = by_fn[f];
    entry.function = f;
    entry.self += c.cpu_time;
    entry.children += inclusive[p].cpu_time - c.cpu_time;
    entry.calls += c.calls;
    if (paths.parent(p) != paths.root()) {
      arcs.push_back(
          GprofArc{paths.function(paths.parent(p)), f, c.calls, inclusive[p].cpu_time});
    }
  }

  // One arc per (caller, callee), in that order.
  auto key = [](const GprofArc& a) { return std::tie(a.caller, a.callee); };
  std::sort(arcs.begin(), arcs.end(),
            [&key](const GprofArc& a, const GprofArc& b) { return key(a) < key(b); });
  for (size_t i = 0; i < arcs.size();) {
    GprofArc arc = arcs[i];
    for (++i; i < arcs.size() && key(arcs[i]) == key(arc); ++i) {
      arc.calls += arcs[i].calls;
      arc.callee_inclusive += arcs[i].callee_inclusive;
    }
    by_fn[arc.callee].callers.push_back(arc);
    by_fn[arc.caller].callees.push_back(arc);
  }

  auto heavier = [](const GprofArc& a, const GprofArc& b) {
    return a.callee_inclusive > b.callee_inclusive;
  };
  std::vector<GprofEntry> out;
  for (GprofEntry& entry : by_fn) {
    if (entry.function != 0) {
      std::sort(entry.callers.begin(), entry.callers.end(), heavier);
      std::sort(entry.callees.begin(), entry.callees.end(), heavier);
      out.push_back(std::move(entry));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const GprofEntry& a, const GprofEntry& b) { return a.self > b.self; });
  return out;
}

std::string RenderGprofReport(const CallingContextTree& cct, const PathTree& paths,
                              const FunctionRegistry& registry, size_t max_entries) {
  std::vector<GprofEntry> entries = BuildGprofEntries(cct, paths);
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
