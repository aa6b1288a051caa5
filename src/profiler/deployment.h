// Deployment-wide profiling state.
//
// A Deployment models one profiled multi-tier application: the shared
// name spaces (function names, the call-path tree every thread's shadow
// stack walks, the transaction-context tree, the context <-> synopsis
// dictionary) plus every stage's profiler.
//
// In the real system each stage keeps these tables privately and the
// presentation phase merges them post mortem (paper §7.1); sharing the
// interners up front is an implementation simplification that changes
// no observable behaviour — synopses are still the only thing that
// crosses stage boundaries, and they remain 4-byte parts.
#ifndef SRC_PROFILER_DEPLOYMENT_H_
#define SRC_PROFILER_DEPLOYMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/callpath/cct.h"
#include "src/callpath/function_registry.h"
#include "src/context/context_tree.h"
#include "src/context/synopsis.h"
#include "src/profiler/sampling.h"

namespace whodunit::obs::live {
class Whodunitd;
}  // namespace whodunit::obs::live

namespace whodunit::profiler {

class StageProfiler;

class Deployment {
 public:
  // Names a context element for reports; apps register namers for
  // their handler/stage id spaces. Call-path elements are rendered
  // from the shared path tree automatically.
  using ElementNamer = std::function<std::string(context::ElementKind, uint32_t)>;

  Deployment();
  ~Deployment();

  callpath::FunctionRegistry& functions() { return functions_; }
  const callpath::FunctionRegistry& functions() const { return functions_; }
  // The call-path tree every shadow stack walks and every CCT counts
  // over; a path id is the id of a kCallPath context element.
  callpath::PathTree& paths() { return paths_; }
  const callpath::PathTree& paths() const { return paths_; }
  // The transaction-context tree: the event library, the SEDA
  // middleware and every stage profiler of this deployment intern into
  // it, and synopsis parts name its NodeIds.
  context::ContextTree& contexts() { return contexts_; }
  const context::ContextTree& contexts() const { return contexts_; }
  context::SynopsisDictionary& synopses() { return synopses_; }
  const context::SynopsisDictionary& synopses() const { return synopses_; }

  void set_element_namer(ElementNamer namer) { element_namer_ = std::move(namer); }

  // ---- Production sampling (docs/PRODUCTION.md) -----------------------
  // One policy per deployment: every stage's ResetTransaction draws its
  // per-transaction decision here, so the deployment-wide decision
  // stream is a single deterministic sequence.
  SamplingPolicy& sampling() { return sampling_; }
  const SamplingPolicy& sampling() const { return sampling_; }

  // Human-readable rendering of a context element / context / synopsis.
  std::string DescribeElement(context::ElementKind kind, uint32_t id) const;
  std::string DescribeContext(context::NodeId ctxt) const;
  std::string DescribeSynopsis(const context::Synopsis& synopsis) const;

  // Stage registry (for the post-mortem stitcher).
  StageProfiler& AddStage(std::unique_ptr<StageProfiler> stage);
  const std::vector<std::unique_ptr<StageProfiler>>& stages() const { return stages_; }

  // ---- Shard identity -------------------------------------------------
  // Which shard of a ParallelRunner fan-out this deployment is; a
  // serial deployment is shard 0 of 1. Reports and exports use this to
  // label per-shard artifacts.
  void set_shard(size_t index, size_t count) {
    shard_index_ = index;
    shard_count_ = count;
  }
  size_t shard_index() const { return shard_index_; }
  size_t shard_count() const { return shard_count_; }

  // ---- Live observability (src/obs/live) ------------------------------
  // Attaches the aggregation daemon to every stage (current and
  // future) and gives it a context namer backed by this deployment's
  // dictionaries. Pass nullptr to detach.
  void AttachLive(obs::live::Whodunitd* live);
  obs::live::Whodunitd* live() const { return live_; }

 private:
  callpath::FunctionRegistry functions_;
  callpath::PathTree paths_;
  context::ContextTree contexts_;
  context::SynopsisDictionary synopses_;
  SamplingPolicy sampling_;
  ElementNamer element_namer_;
  std::vector<std::unique_ptr<StageProfiler>> stages_;
  size_t shard_index_ = 0;
  size_t shard_count_ = 1;
  obs::live::Whodunitd* live_ = nullptr;
};

}  // namespace whodunit::profiler

#endif  // SRC_PROFILER_DEPLOYMENT_H_
