#include "src/seda/stage.h"

#include <algorithm>
#include <utility>

namespace whodunit::seda {

StageId StageGraph::AddStage(std::string name, int workers, Body body) {
  const auto id = static_cast<StageId>(stages_.size());
  stages_.push_back(std::make_unique<Stage>(*this, id, std::move(name), workers,
                                            std::move(body)));
  return id;
}

const std::string& StageGraph::StageName(StageId id) const { return stages_[id]->name(); }

void StageGraph::InjectExternal(StageId stage, uint64_t payload, bool sampled) {
  stages_[stage]->Enqueue(QueueElem{payload, context::kEmptyContext, sampled});
}

void StageGraph::Start() {
  for (auto& s : stages_) {
    s->Start();
  }
}

void StageGraph::Stop() {
  for (auto& s : stages_) {
    s->Close();
  }
}

void StageGraph::WorkerContext::EnqueueTo(StageId next, uint64_t next_payload) {
  QueueElem elem{next_payload, context::kEmptyContext, sampled};
  if (graph.tracking() && sampled) {
    elem.tran_ctxt = curr_node;  // Figure 5, line 12
  }
  graph.stage(next).Enqueue(std::move(elem));
}

Stage::Stage(StageGraph& graph, StageId id, std::string name, int workers,
             StageGraph::Body body)
    : graph_(graph),
      id_(id),
      name_(std::move(name)),
      workers_(workers),
      body_(std::move(body)),
      queue_(graph.scheduler()),
      obs_processed_(&obs::Registry().GetCounter("seda.elements_processed")),
      obs_concats_(&obs::Registry().GetCounter("seda.context_concats")),
      obs_queue_depth_(&obs::Registry().GetHistogram("seda.queue_depth")),
      obs_element_ns_(&obs::Registry().GetHistogram("seda.element_ns")),
      obs_queue_wait_(&obs::Registry().GetHistogram("seda.queue_wait_ns")) {}

void Stage::Start() {
  for (int w = 0; w < workers_; ++w) {
    sim::Spawn(graph_.sched_, WorkerLoop(w));
  }
}

sim::Process Stage::WorkerLoop(int worker) {
  for (;;) {
    auto elem = co_await queue_.Receive();
    if (!elem) {
      break;
    }
    obs_queue_depth_->Observe(queue_.pending());
    StageGraph::WorkerContext wc{graph_, id_, worker, elem->payload,
                                 context::kEmptyContext, elem->sampled};
    wc.queue_wait_ns =
        std::max<int64_t>(0, graph_.scheduler().now() - elem->enqueued_ns);
    obs_queue_wait_->Observe(static_cast<uint64_t>(wc.queue_wait_ns));
    if (graph_.tracking()) {
      if (elem->sampled) {
        // Figure 5, lines 5-6: current context = element's context
        // concatenated with the current stage (loops pruned by Append).
        // One hash-cons probe against the graph's context tree.
        wc.curr_node = graph_.contexts_.Append(
            elem->tran_ctxt, context::Element{context::ElementKind::kStage, id_});
        obs_concats_->Add();
      }
      if (graph_.listener_) {
        graph_.listener_(id_, worker, wc.curr_node, elem->sampled);
      }
    }
    ++processed_;
    obs_processed_->Add();
    const sim::SimTime start = graph_.scheduler().now();
    co_await body_(wc);
    const sim::SimTime elapsed = graph_.scheduler().now() - start;
    obs_element_ns_->Observe(static_cast<uint64_t>(elapsed));
  }
}

}  // namespace whodunit::seda
