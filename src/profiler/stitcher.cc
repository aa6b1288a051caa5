#include "src/profiler/stitcher.h"

#include <sstream>

#include "src/obs/metrics.h"
#include "src/profiler/stage_profiler.h"

namespace whodunit::profiler {
namespace {

std::function<std::string(uint32_t)> PartNamer(const Deployment& deployment) {
  return [&deployment](uint32_t part) {
    return deployment.synopses().Contains(part)
               ? deployment.DescribeContext(deployment.synopses().Lookup(part))
               : std::string("?");
  };
}

}  // namespace

Stitcher::Stitcher(const callpath::FunctionRegistry& functions, const callpath::PathTree& paths,
                   std::function<std::string(uint32_t)> describe_part)
    : functions_(functions), paths_(paths), describe_part_(std::move(describe_part)) {}

Stitcher::Stitcher(const Deployment& deployment)
    : Stitcher(deployment.functions(), deployment.paths(), PartNamer(deployment)) {
  for (const auto& stage : deployment.stages()) {
    AddStage(*stage);
  }
}

Stitcher::Stitcher(const StageProfiler& stage)
    : Stitcher(stage.deployment().functions(), stage.deployment().paths(),
               PartNamer(stage.deployment())) {
  AddStage(stage);
}

Stitcher::Stitcher(const Profile& profile)
    : Stitcher(profile.functions, profile.paths, [&profile](uint32_t part) {
        auto it = profile.parts.find(part);
        return it != profile.parts.end() ? it->second : std::string("?");
      }) {
  for (const Profile::Stage& stage : profile.stages) {
    stages_.push_back(stage.name);
    for (const Profile::Row& row : stage.rows) {
      rows_.push_back(Row{stage.name, row.label, profile.Describe(row.label), &row.cct});
    }
  }
}

void Stitcher::AddStage(const StageProfiler& stage) {
  stages_.push_back(stage.name());
  for (const auto& [label, cct] : stage.LabeledCcts()) {
    rows_.push_back(Row{stage.name(), label,
                        label.empty() ? "(origin)" : stage.deployment().DescribeSynopsis(label),
                        cct});
  }
}

std::vector<Stitcher::Edge> Stitcher::Edges() const {
  std::vector<Edge> edges;
  // A label with parts [p0..pn] was created by a send whose caller ran
  // with label [p0..pn-1] (or a prefix of it, since the caller's label
  // omits a purely-local tail). Match the longest proper prefix owned
  // by another (or the same) stage.
  for (const Row& callee : rows_) {
    if (callee.label.parts.empty()) {
      continue;
    }
    context::Synopsis prefix = callee.label;
    prefix.parts.pop_back();
    const Row* best = nullptr;
    size_t best_len = 0;
    for (const Row& caller : rows_) {
      if (&caller == &callee) {
        continue;
      }
      if (prefix.HasPrefix(caller.label) && (best == nullptr ||
                                             caller.label.parts.size() >= best_len)) {
        best = &caller;
        best_len = caller.label.parts.size();
      }
    }
    if (best != nullptr) {
      edges.push_back(Edge{std::string(best->stage), best->label, std::string(callee.stage),
                           callee.label, describe_part_(callee.label.parts.back())});
    }
  }
  obs::Registry().GetCounter("stitcher.edges_stitched").Add(edges.size());
  return edges;
}

std::string Stitcher::Render(double min_fraction) const {
  std::ostringstream out;
  out << "===== stitched transactional profile =====\n";
  for (std::string_view stage : stages_) {
    out << RenderStage(stage, min_fraction);
  }
  out << "===== transaction flow edges =====\n";
  for (const Edge& e : Edges()) {
    out << "  " << e.from_stage << " "
        << (e.from_label.empty() ? "(origin)" : e.from_label.ToString()) << " --" << e.send_context
        << "--> " << e.to_stage << " " << e.to_label.ToString() << "\n";
  }
  return out.str();
}

double Stitcher::StageCpu(std::string_view stage) const {
  sim::SimTime total = 0;
  for (const Row& row : rows_) {
    if (row.stage == stage) {
      total += row.cct->TotalCpuTime();
    }
  }
  return static_cast<double>(total);
}

std::string Stitcher::RenderStage(std::string_view stage, double min_fraction,
                                  std::string_view suffix) const {
  const double total = StageCpu(stage);
  std::ostringstream out;
  out << "=== transactional profile of stage '" << stage << "'" << suffix << " ===\n";
  for (const Row& row : rows_) {
    if (row.stage != stage) {
      continue;
    }
    const double share =
        total > 0 ? 100.0 * static_cast<double>(row.cct->TotalCpuTime()) / total : 0.0;
    out << "--- context " << row.context << "  [" << share << "% of stage CPU, "
        << row.cct->TotalSamples() << " samples]\n";
    out << row.cct->Render(paths_, functions_, min_fraction);
  }
  return out.str();
}

std::string Stitcher::RenderDot() const {
  std::ostringstream out;
  out << "digraph whodunit {\n  rankdir=LR;\n  node [shape=box];\n";
  auto node_id = [](std::string_view stage, const context::Synopsis& label) {
    std::string id = "\"" + std::string(stage) + ":";
    id += label.empty() ? "origin" : label.ToString();
    id += "\"";
    return id;
  };
  int cluster = 0;
  for (std::string_view stage : stages_) {
    out << "  subgraph cluster_" << cluster++ << " {\n    label=\"" << stage << "\";\n";
    const double total = StageCpu(stage);
    for (const Row& row : rows_) {
      if (row.stage != stage) {
        continue;
      }
      const double share =
          total > 0 ? 100.0 * static_cast<double>(row.cct->TotalCpuTime()) / total : 0.0;
      out << "    " << node_id(stage, row.label) << " [label=\"" << row.context << "\\n"
          << share << "% CPU\"];\n";
    }
    out << "  }\n";
  }
  for (const Edge& e : Edges()) {
    out << "  " << node_id(e.from_stage, e.from_label) << " -> "
        << node_id(e.to_stage, e.to_label) << " [label=\"" << e.send_context
        << "\", style=dashed];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace whodunit::profiler
