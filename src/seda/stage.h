// SEDA middleware with transaction-context propagation.
//
// Figure 5 of the paper: stage queues carry a transaction context per
// element; a stage worker dequeues an element, computes its current
// transaction context by concatenating the element's context with the
// current stage (pruning loops), executes, and stamps any elements it
// enqueues downstream with that context. Applications built on the
// library need no modification for transactional profiling.
#ifndef SRC_SEDA_STAGE_H_
#define SRC_SEDA_STAGE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/context/context_tree.h"
#include "src/obs/metrics.h"
#include "src/sim/channel.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"

namespace whodunit::seda {

using StageId = uint32_t;

struct QueueElem {
  uint64_t payload;
  // The interned transaction context (a 4-byte handle into the graph's
  // context tree), so enqueueing never copies an element sequence.
  context::NodeId tran_ctxt = context::kEmptyContext;
  // Production sampling (docs/PRODUCTION.md): the transaction's
  // sampling decision rides beside the context handle; unsampled
  // elements skip context concatenation entirely.
  bool sampled = true;
  // Virtual time the element entered its queue (stamped by
  // Stage::Enqueue); the dequeueing worker's queue residency is
  // now - enqueued_ns, the kQueueWait attribution feed.
  int64_t enqueued_ns = 0;
};

class Stage;

// One SEDA application: a set of stages wired by queues.
class StageGraph {
 public:
  // `contexts` is the owning deployment's context tree
  // (profiler::Deployment::contexts()); every worker interns into it.
  StageGraph(sim::Scheduler& sched, context::ContextTree& contexts)
      : sched_(sched), contexts_(contexts) {}

  // Creates a stage with `workers` worker threads running `body`.
  // Returns its id. Stages are started with Start().
  struct WorkerContext;
  using Body = std::function<sim::Task<void>(WorkerContext&)>;
  StageId AddStage(std::string name, int workers, Body body);

  Stage& stage(StageId id) { return *stages_[id]; }
  const Stage& stage(StageId id) const { return *stages_[id]; }
  const std::string& StageName(StageId id) const;
  size_t stage_count() const { return stages_.size(); }

  // Injects an external request into a stage's input queue with an
  // empty transaction context. `sampled` is the fresh transaction's
  // sampling decision (profiler::SamplingPolicy::Decide at the
  // origin); unsampled requests flow through the graph without any
  // context-tree work.
  void InjectExternal(StageId stage, uint64_t payload, bool sampled = true);

  // Spawns all worker processes.
  void Start();
  // Closes all stage queues; workers drain and exit.
  void Stop();

  void set_tracking(bool on) { tracking_ = on; }
  bool tracking() const { return tracking_; }

  // Fired when a worker's current transaction context changes;
  // the worker index is global across stages. Receives the node id in
  // the graph's context tree and the element's sampling decision
  // (node is kEmptyContext when unsampled — no concatenation was
  // performed).
  using ContextListener =
      std::function<void(StageId, int worker, context::NodeId, bool sampled)>;
  void set_context_listener(ContextListener listener) { listener_ = std::move(listener); }

  sim::Scheduler& scheduler() { return sched_; }

  // The execution context a stage body receives.
  struct WorkerContext {
    StageGraph& graph;
    StageId stage;
    int worker;  // index within the stage
    uint64_t payload;
    // Figure 5, lines 10-13: enqueue downstream with the current
    // transaction context.
    void EnqueueTo(StageId next, uint64_t next_payload);
    context::NodeId current_node() const { return curr_node; }

    context::NodeId curr_node = context::kEmptyContext;
    // The element's sampling decision, propagated to every element
    // this worker enqueues downstream.
    bool sampled = true;
    // Queue residency of the element this worker is executing
    // (dequeue time minus Stage::Enqueue stamp).
    int64_t queue_wait_ns = 0;
  };

 private:
  friend class Stage;

  sim::Scheduler& sched_;
  context::ContextTree& contexts_;
  std::vector<std::unique_ptr<Stage>> stages_;
  bool tracking_ = true;
  ContextListener listener_;
};

class Stage {
 public:
  Stage(StageGraph& graph, StageId id, std::string name, int workers, StageGraph::Body body);

  void Enqueue(QueueElem elem) {
    elem.enqueued_ns = graph_.scheduler().now();
    queue_.Send(std::move(elem));
  }
  void Close() { queue_.Close(); }

  const std::string& name() const { return name_; }
  StageId id() const { return id_; }
  int workers() const { return workers_; }
  uint64_t processed() const { return processed_; }

  void Start();

 private:
  sim::Process WorkerLoop(int worker);

  StageGraph& graph_;
  StageId id_;
  std::string name_;
  int workers_;
  StageGraph::Body body_;
  sim::Channel<QueueElem> queue_;
  uint64_t processed_ = 0;

  // Self-observability handles, resolved once (see docs/METRICS.md).
  obs::Counter* obs_processed_;
  obs::Counter* obs_concats_;
  obs::Histogram* obs_queue_depth_;
  obs::Histogram* obs_element_ns_;
  obs::Histogram* obs_queue_wait_;
};

}  // namespace whodunit::seda

#endif  // SRC_SEDA_STAGE_H_
