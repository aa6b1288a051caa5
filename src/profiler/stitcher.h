// The presentation phase: stitching per-stage profiles (paper §5,
// §7.1).
//
// After a run, each stage holds a dictionary of CCTs labeled by
// transaction-context synopsis. Because a callee's label extends its
// caller's send synopsis by exactly one part, the global transactional
// profile is recovered by connecting each labeled CCT to the stage
// whose send created its last synopsis part — the request/response
// edges of Figure 7.
//
// A Stitcher reads rows — one per (stage, label) CCT — from a live
// deployment or a single stage (by pointer: no CCT is copied) or from
// a Profile (re-read from files or folded from shards), and renders
// them the same way either way: a run's post-mortem report is its live
// report, byte for byte. It refers to its source, which must outlive
// it.
#ifndef SRC_PROFILER_STITCHER_H_
#define SRC_PROFILER_STITCHER_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/callpath/cct.h"
#include "src/callpath/function_registry.h"
#include "src/context/synopsis.h"
#include "src/profiler/deployment.h"
#include "src/profiler/profile.h"

namespace whodunit::profiler {

class Stitcher {
 public:
  // Every stage registered with the deployment.
  explicit Stitcher(const Deployment& deployment);
  // One stage, registered with its deployment or not.
  explicit Stitcher(const StageProfiler& stage);
  explicit Stitcher(const Profile& profile);

  struct Edge {
    std::string from_stage;
    context::Synopsis from_label;  // caller's CCT label
    std::string to_stage;
    context::Synopsis to_label;  // callee's CCT label (extends the send)
    std::string send_context;    // description of the send point
  };

  // All request edges recoverable from the rows' labels. Found (and
  // counted in stitcher.edges_stitched) on the first call; Render and
  // RenderDot reuse them.
  const std::vector<Edge>& Edges() const;

  // The full multi-stage transactional profile: every stage's labeled
  // CCTs plus the stitched request edges.
  std::string Render(double min_fraction = 0.0) const;

  // One stage's section: a header (with `suffix` after the stage
  // name), then per labeled CCT its context, share of stage CPU,
  // samples and tree.
  std::string RenderStage(std::string_view stage, double min_fraction = 0.0,
                          std::string_view suffix = "") const;

  // Graphviz rendering of the Figure 7 graph: one cluster per stage,
  // one node per (stage, context) CCT, request edges labeled with the
  // send point.
  std::string RenderDot() const;

 private:
  struct Row {
    std::string_view stage;
    context::Synopsis label;
    std::string context;  // the label's description
    const callpath::CallingContextTree* cct;
  };

  Stitcher(const callpath::FunctionRegistry& functions, const callpath::PathTree& paths,
           std::function<std::string(uint32_t)> describe_part);
  void AddStage(const StageProfiler& stage);
  // CPU time over the stage's rows.
  double StageCpu(std::string_view stage) const;

  const callpath::FunctionRegistry& functions_;
  const callpath::PathTree& paths_;
  std::vector<std::string_view> stages_;
  std::vector<Row> rows_;  // grouped by stage, in stages_ order
  // Description of one synopsis part ("?" if unknown).
  std::function<std::string(uint32_t)> describe_part_;
  mutable std::optional<std::vector<Edge>> edges_;
};

}  // namespace whodunit::profiler

#endif  // SRC_PROFILER_STITCHER_H_
