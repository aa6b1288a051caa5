#include "src/profiler/stage_profiler.h"

#include <algorithm>
#include <utility>

#include "src/obs/live/daemon.h"
#include "src/obs/metrics.h"
#include "src/profiler/stitcher.h"

namespace whodunit::profiler {

using callpath::CountsCalls;
using callpath::Samples;
using callpath::TracksTransactions;

StageProfiler::StageProfiler(Deployment& deployment, Options options)
    : deployment_(deployment),
      options_(std::move(options)),
      obs_sends_(&obs::Registry().GetCounter("profiler.sends_prepared")),
      obs_matches_(&obs::Registry().GetCounter("profiler.synopsis_matches")),
      obs_misses_(&obs::Registry().GetCounter("profiler.synopsis_misses")),
      obs_adoptions_(&obs::Registry().GetCounter("profiler.flow_adoptions")),
      obs_switches_(&obs::Registry().GetCounter("profiler.cct_switches")),
      obs_suppressed_(&obs::Registry().GetCounter("sampling.sends_suppressed")) {}

ThreadProfile& StageProfiler::CreateThread(std::string thread_name) {
  threads_.push_back(
      std::make_unique<ThreadProfile>(std::move(thread_name), deployment_.paths(),
                                      options_.sample_period));
  ThreadProfile& tp = *threads_.back();
  UpdateCct(tp);
  return tp;
}

callpath::FunctionId StageProfiler::RegisterFunction(std::string_view fn_name) {
  return deployment_.functions().Intern(fn_name);
}

StageProfiler::FrameGuard::FrameGuard(StageProfiler& prof, ThreadProfile& tp,
                                      callpath::FunctionId fn)
    : prof_(prof), tp_(tp) {
  tp_.stack_.Push(fn);
  if (CountsCalls(prof_.options_.mode)) {
    ++tp_.uncharged_pushes_;
  }
}

StageProfiler::FrameGuard::~FrameGuard() { tp_.stack_.Pop(); }

sim::SimTime StageProfiler::ChargeCpu(ThreadProfile& tp, sim::SimTime app_cost) {
  sim::SimTime total = app_cost;
  if (options_.mode == callpath::ProfilerMode::kNone) {
    return total;
  }
  // gprof's mcount: a fixed cost per procedure entry since last charge.
  if (CountsCalls(options_.mode) && tp.uncharged_pushes_ > 0) {
    total += static_cast<sim::SimTime>(tp.uncharged_pushes_) * options_.costs.per_call;
    tp.uncharged_pushes_ = 0;
  }
  // Whodunit's synopsis computation/propagation per message.
  if (TracksTransactions(options_.mode) && tp.uncharged_messages_ > 0) {
    total +=
        static_cast<sim::SimTime>(tp.uncharged_messages_) * options_.costs.per_message_context;
    tp.uncharged_messages_ = 0;
  }
  if (Samples(options_.mode) && tp.sampled_) {
    const uint64_t before = tp.sampler_.samples_taken();
    tp.sampler_.OnCpu(tp.stack_, app_cost);
    const uint64_t fired = tp.sampler_.samples_taken() - before;
    total += static_cast<sim::SimTime>(fired) * options_.costs.per_sample;
  }
  // Live observability: batch the app cost against the thread's current
  // context node; UpdateCct / FlushLive publish the batch. Within a
  // live span the same cost also accumulates as the span's kService
  // wait-state measurement (flushed as the span closes).
  if (live_ != nullptr && tp.sampled_) {
    tp.live_cost_acc_ += app_cost;
    if (tp.live_txn_ != 0) {
      tp.live_span_service_ += app_cost;
    }
  }
  return total;
}

void StageProfiler::SetLocalContext(ThreadProfile& tp, context::NodeId node) {
  if (!TracksTransactions(options_.mode)) {
    return;
  }
  tp.local_node_ = node;
  UpdateCct(tp);
}

void StageProfiler::ResetTransaction(ThreadProfile& tp) {
  if (!TracksTransactions(options_.mode)) {
    return;
  }
  tp.incoming_ = {};
  tp.local_node_ = context::kEmptyContext;
  tp.pending_sends_.clear();
  tp.sampled_ = deployment_.sampling().Decide();
  UpdateCct(tp);
}

context::Synopsis StageProfiler::PrepareSend(ThreadProfile& tp, bool expect_response) {
  if (!TracksTransactions(options_.mode)) {
    return {};
  }
  // Unsampled transaction: piggy-back nothing. A sampled send always
  // carries at least one part, so the receiver reads an empty wire
  // synopsis unambiguously as "unsampled" (OnReceive below). No
  // dictionary work, no pending-send state, no per-message cost.
  if (!tp.sampled_) {
    obs_suppressed_->Add();
    return {};
  }
  obs_sends_->Add();
  // Transaction context at the send point: the locally accumulated
  // elements plus the call path leading to the send (§5). Two O(1)
  // probes: one hash-cons append, one synopsis-dictionary lookup.
  const context::NodeId send_node = deployment_.contexts().Append(
      tp.local_node_, context::Element{context::ElementKind::kCallPath, tp.stack_.path_id()});
  const uint32_t part = deployment_.synopses().Intern(send_node);
  context::Synopsis wire = tp.incoming_.Extend(context::Synopsis{{part}});
  if (expect_response) {
    tp.pending_sends_.emplace_back(
        wire, ThreadProfile::SavedState{tp.incoming_, tp.local_node_});
  }
  ++tp.uncharged_messages_;
  if (live_ != nullptr && tp.live_txn_ != 0) {
    live_->NoteSend(tp.live_txn_, live_name_sym_, part);
  }
  return wire;
}

bool StageProfiler::OnReceive(ThreadProfile& tp, const context::Synopsis& synopsis) {
  if (!TracksTransactions(options_.mode)) {
    return false;
  }
  // An empty wire synopsis under active sampling means the sender's
  // transaction was unsampled (PrepareSend above): carry the unsampled
  // state across the hop and skip the context machinery. Gated on
  // always_on so rate-1.0 deployments keep the historical
  // adopt-empty-context behaviour byte for byte.
  if (synopsis.empty() && !deployment_.sampling().always_on()) {
    tp.sampled_ = false;
    tp.pending_sends_.clear();
    return false;
  }
  tp.sampled_ = true;
  ++tp.uncharged_messages_;
  // Response recognition (§5): a message whose synopsis extends one we
  // sent is the reply to that request; restore the context we had when
  // we issued it.
  for (auto it = tp.pending_sends_.begin(); it != tp.pending_sends_.end(); ++it) {
    if (synopsis.parts.size() > it->first.parts.size() && synopsis.HasPrefix(it->first)) {
      tp.incoming_ = it->second.incoming;
      tp.local_node_ = it->second.local_node;
      tp.pending_sends_.erase(it);
      UpdateCct(tp);
      obs_matches_->Add();
      return true;
    }
  }
  // New request: adopt the sender's transaction context wholesale.
  obs_misses_->Add();
  tp.incoming_ = synopsis;
  tp.local_node_ = context::kEmptyContext;
  UpdateCct(tp);
  return false;
}

uint32_t StageProfiler::CurrentCtxtId(ThreadProfile& tp) { return InternCtxt(FullSynopsis(tp)); }

void StageProfiler::AdoptCtxt(ThreadProfile& tp, uint32_t ctxt_id) {
  if (!TracksTransactions(options_.mode)) {
    return;
  }
  obs_adoptions_->Add();
  tp.incoming_ = ctxt_table_.at(ctxt_id);
  tp.local_node_ = context::kEmptyContext;
  UpdateCct(tp);
}

const context::Synopsis& StageProfiler::SynopsisOfCtxtId(uint32_t ctxt_id) const {
  return ctxt_table_.at(ctxt_id);
}

uint64_t StageProfiler::CrosstalkTag(ThreadProfile& tp) {
  return InternCtxt(ComputeLabel(tp));
}

void StageProfiler::AttachLive(obs::live::Whodunitd* live) {
  live_ = live;
  live_name_sym_ = live_ != nullptr ? live_->symbols().Intern(options_.name) : 0;
}

uint64_t StageProfiler::LiveBegin(ThreadProfile& tp, uint32_t type_sym) {
  if (live_ == nullptr || !TracksTransactions(options_.mode)) {
    return 0;
  }
  // Unsampled transactions never reach the daemon; every downstream
  // live hook already no-ops on txn id 0.
  if (!tp.sampled_) {
    tp.live_txn_ = 0;
    return 0;
  }
  FlushLiveCost(tp);
  tp.live_txn_ = live_->BeginTxn(live_name_sym_, live_->now());
  tp.live_span_service_ = 0;
  tp.live_span_lock_ = 0;
  if (tp.live_txn_ != 0 && type_sym != 0) {
    live_->SetTxnType(tp.live_txn_, util::SymId{type_sym});
  }
  return tp.live_txn_;
}

uint64_t StageProfiler::LiveBegin(ThreadProfile& tp, std::string_view type) {
  if (live_ == nullptr) {
    return 0;
  }
  return LiveBegin(tp, type.empty() ? 0 : live_->symbols().Intern(type));
}

void StageProfiler::LiveJoin(ThreadProfile& tp, uint64_t txn, sim::SimTime queue_ns) {
  if (live_ == nullptr) {
    return;
  }
  FlushLiveCost(tp);
  tp.live_txn_ = txn;
  // An unsampled thread charges no live cost, and UpdateCct already
  // recomputes the node on every context change, so only a sampled
  // join needs the concatenation.
  if (tp.sampled_) {
    tp.live_ctxt_node_ = LiveCtxtNode(tp);
  }
  tp.live_span_service_ = 0;
  tp.live_span_lock_ = 0;
  if (txn == 0) {
    return;
  }
  const uint32_t link = tp.incoming_.parts.empty() ? 0 : tp.incoming_.parts.back();
  live_->JoinSpan(txn, live_name_sym_, link, live_->now(), queue_ns, tp.live_ctxt_node_);
}

void StageProfiler::LiveLeave(ThreadProfile& tp) {
  if (live_ == nullptr) {
    return;
  }
  FlushLiveCost(tp);
  FlushSpanMeasurements(tp);
  if (tp.live_txn_ != 0) {
    live_->EndSpan(tp.live_txn_, live_name_sym_, live_->now());
  }
  tp.live_txn_ = 0;
}

void StageProfiler::LiveComplete(ThreadProfile& tp, bool error) {
  if (live_ == nullptr) {
    return;
  }
  FlushLiveCost(tp);
  FlushSpanMeasurements(tp);
  if (tp.live_txn_ != 0) {
    if (error) {
      live_->ErrorTxn(tp.live_txn_);
    }
    live_->SetTxnCtxt(tp.live_txn_, tp.live_ctxt_node_);
    live_->CompleteTxn(tp.live_txn_, live_->now());
  }
  tp.live_txn_ = 0;
}

void StageProfiler::LiveLockWait(ThreadProfile& tp, sim::SimTime wait_ns) {
  if (live_ != nullptr && tp.live_txn_ != 0 && wait_ns > 0) {
    tp.live_span_lock_ += wait_ns;
  }
}

void StageProfiler::LiveType(ThreadProfile& tp, uint32_t type_sym) {
  if (live_ != nullptr && tp.live_txn_ != 0) {
    live_->SetTxnType(tp.live_txn_, util::SymId{type_sym});
  }
}

void StageProfiler::LiveType(ThreadProfile& tp, std::string_view type) {
  if (live_ != nullptr && tp.live_txn_ != 0) {
    live_->SetTxnType(tp.live_txn_, type);
  }
}

void StageProfiler::FlushLive() {
  for (const auto& tp : threads_) {
    FlushLiveCost(*tp);
  }
}

context::NodeId StageProfiler::LiveCtxtNode(const ThreadProfile& tp) const {
  context::ContextTree& tree = deployment_.contexts();
  context::NodeId node = context::kEmptyContext;
  for (uint32_t part : tp.incoming_.parts) {
    node = tree.Concat(node, deployment_.synopses().Lookup(part));
  }
  if (tp.local_node_ != context::kEmptyContext) {
    node = tree.Concat(node, tp.local_node_);
  }
  return node;
}

void StageProfiler::FlushLiveCost(ThreadProfile& tp) {
  if (live_ == nullptr || tp.live_cost_acc_ == 0) {
    return;
  }
  live_->AddCost(tp.live_ctxt_node_, static_cast<uint64_t>(tp.live_cost_acc_));
  tp.live_cost_acc_ = 0;
}

void StageProfiler::FlushSpanMeasurements(ThreadProfile& tp) {
  if (live_ == nullptr || tp.live_txn_ == 0) {
    tp.live_span_service_ = 0;
    tp.live_span_lock_ = 0;
    return;
  }
  if (tp.live_span_service_ > 0) {
    live_->AddSpanWait(tp.live_txn_, live_name_sym_, obs::live::WaitState::kService,
                       static_cast<int64_t>(tp.live_span_service_));
    tp.live_span_service_ = 0;
  }
  if (tp.live_span_lock_ > 0) {
    live_->AddSpanWait(tp.live_txn_, live_name_sym_, obs::live::WaitState::kLockWait,
                       static_cast<int64_t>(tp.live_span_lock_));
    tp.live_span_lock_ = 0;
  }
}

void StageProfiler::AccountMessage(size_t payload_bytes, size_t context_bytes) {
  payload_bytes_ += payload_bytes;
  context_bytes_ += context_bytes;
}

const callpath::CallingContextTree* StageProfiler::FindCct(
    const context::Synopsis& label) const {
  auto it = ccts_.find(label);
  return it == ccts_.end() ? nullptr : &it->second;
}

std::vector<std::pair<context::Synopsis, const callpath::CallingContextTree*>>
StageProfiler::LabeledCcts() const {
  std::vector<std::pair<context::Synopsis, const callpath::CallingContextTree*>> out;
  out.reserve(ccts_.size());
  for (const auto& [label, cct] : ccts_) {
    // Skip trees that were created (a thread merely passed through the
    // context) but never accumulated any profile data.
    if (cct.TotalCpuTime() == 0 && cct.TotalSamples() == 0 && cct.size() == 1) {
      continue;
    }
    out.emplace_back(label, &cct);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first.parts < b.first.parts;
  });
  return out;
}

uint64_t StageProfiler::total_samples() const {
  uint64_t total = 0;
  for (const auto& [label, cct] : ccts_) {
    total += cct.TotalSamples();
  }
  return total;
}

sim::SimTime StageProfiler::total_cpu_time() const {
  sim::SimTime total = 0;
  for (const auto& [label, cct] : ccts_) {
    total += cct.TotalCpuTime();
  }
  return total;
}

std::string StageProfiler::RenderTransactionalProfile(double min_fraction) const {
  return Stitcher(*this).RenderStage(options_.name, min_fraction);
}

context::Synopsis StageProfiler::ComputeLabel(const ThreadProfile& tp) {
  if (tp.local_node_ == context::kEmptyContext) {
    return tp.incoming_;
  }
  context::Synopsis label = tp.incoming_;
  label.parts.push_back(deployment_.synopses().Intern(tp.local_node_));
  return label;
}

void StageProfiler::UpdateCct(ThreadProfile& tp) {
  context::Synopsis label = ComputeLabel(tp);
  if (tp.label_valid_ && label == tp.current_label_) {
    return;
  }
  obs_switches_->Add();
  if (live_ != nullptr) {
    // Costs batched so far belong to the outgoing context.
    FlushLiveCost(tp);
  }
  tp.current_label_ = label;
  tp.label_valid_ = true;
  tp.stack_.AttachCct(&ccts_[label]);
  if (live_ != nullptr) {
    tp.live_ctxt_node_ = LiveCtxtNode(tp);
  }
}

context::Synopsis StageProfiler::FullSynopsis(ThreadProfile& tp) {
  const context::NodeId full = deployment_.contexts().Append(
      tp.local_node_, context::Element{context::ElementKind::kCallPath, tp.stack_.path_id()});
  return tp.incoming_.Extend(context::Synopsis{{deployment_.synopses().Intern(full)}});
}

uint32_t StageProfiler::InternCtxt(const context::Synopsis& synopsis) {
  auto it = ctxt_ids_.find(synopsis);
  if (it != ctxt_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<uint32_t>(ctxt_table_.size());
  ctxt_table_.push_back(synopsis);
  ctxt_ids_.emplace(synopsis, id);
  return id;
}

}  // namespace whodunit::profiler
