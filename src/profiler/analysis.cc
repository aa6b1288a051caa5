#include "src/profiler/analysis.h"

#include <algorithm>
#include <sstream>

namespace whodunit::profiler {
namespace {

void FinalizeShares(std::vector<ContextShare>& rows, size_t max_rows) {
  std::sort(rows.begin(), rows.end(),
            [](const ContextShare& a, const ContextShare& b) { return a.cpu > b.cpu; });
  sim::SimTime total = 0;
  for (const ContextShare& row : rows) {
    total += row.cpu;
  }
  for (ContextShare& row : rows) {
    row.share = total > 0 ? 100.0 * static_cast<double>(row.cpu) /
                                static_cast<double>(total)
                          : 0.0;
  }
  if (rows.size() > max_rows) {
    rows.resize(max_rows);
  }
}

}  // namespace

std::vector<ContextShare> Analysis::TopContexts(const StageProfiler& stage,
                                                size_t max_rows) const {
  std::vector<ContextShare> rows;
  for (const auto& [label, cct] : stage.LabeledCcts()) {
    ContextShare row;
    row.label = label;
    row.description = label.empty() ? "(origin)" : deployment_.DescribeSynopsis(label);
    row.cpu = cct->TotalCpuTime();
    rows.push_back(std::move(row));
  }
  FinalizeShares(rows, max_rows);
  return rows;
}

std::vector<ContextShare> Analysis::WhoCauses(const StageProfiler& stage,
                                              std::string_view function_name,
                                              size_t max_rows) const {
  const callpath::FunctionId fn = deployment_.functions().Find(function_name);
  std::vector<ContextShare> rows;
  if (fn == util::SymbolTable::kNotFound) {
    return rows;
  }
  const callpath::PathTree& paths = deployment_.paths();
  for (const auto& [label, cct] : stage.LabeledCcts()) {
    // A path the CCT does not hold has zero inclusive time.
    const std::vector<callpath::PathCounters> inclusive = cct->Inclusive(paths);
    sim::SimTime fn_cpu = 0;
    for (callpath::PathId p = 1; p < inclusive.size(); ++p) {
      if (paths.function(p) == fn) {
        fn_cpu += inclusive[p].cpu_time;
      }
    }
    if (fn_cpu == 0) {
      continue;
    }
    ContextShare row;
    row.label = label;
    row.description = label.empty() ? "(origin)" : deployment_.DescribeSynopsis(label);
    row.cpu = fn_cpu;
    rows.push_back(std::move(row));
  }
  FinalizeShares(rows, max_rows);
  return rows;
}

std::string Analysis::RenderWhoCauses(const StageProfiler& stage,
                                      std::string_view function_name, size_t max_rows) const {
  std::ostringstream out;
  out << "who causes '" << function_name << "' at stage '" << stage.name() << "':\n";
  auto rows = WhoCauses(stage, function_name, max_rows);
  if (rows.empty()) {
    out << "  (function never sampled)\n";
    return out.str();
  }
  for (const ContextShare& row : rows) {
    out << "  " << row.share << "% (" << sim::ToMillis(row.cpu) << "ms)  via "
        << row.description << "\n";
  }
  return out.str();
}

}  // namespace whodunit::profiler
