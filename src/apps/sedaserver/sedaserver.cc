#include "src/apps/sedaserver/sedaserver.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "src/apps/shards.h"
#include "src/http/http.h"
#include "src/obs/live/daemon.h"
#include "src/obs/metrics.h"
#include "src/profiler/deployment.h"
#include "src/profiler/profile.h"
#include "src/profiler/stage_profiler.h"
#include "src/profiler/stitcher.h"
#include "src/seda/stage.h"
#include "src/sim/channel.h"
#include "src/sim/cpu.h"
#include "src/util/lru_set.h"
#include "src/util/pooled_vec.h"
#include "src/util/rng.h"
#include "src/util/robin_hood.h"
#include "src/util/zipf.h"
#include "src/workload/arrivals.h"
#include "src/workload/calibration.h"
#include "src/workload/webtrace.h"

namespace whodunit::apps {
namespace {

using callpath::TracksTransactions;
using profiler::StageProfiler;
using profiler::ThreadProfile;
using seda::StageGraph;
using seda::StageId;

// Requests injected by an open-loop generator carry this sentinel
// client id: no closed-loop coroutine is waiting on client_done_.
constexpr uint32_t kOpenLoopClient = 0xFFFFFFFFu;

struct ReqState {
  uint32_t client;
  uint32_t object = 0;
  util::PooledVec<uint32_t> objects;
  size_t next_index = 0;
  uint64_t txn = 0;  // live-observability transaction id
};

class Haboob {
 public:
  explicit Haboob(const SedaServerOptions& options)
      : options_(options),
        cpu_(sched_, workload::kWebServerCores, "haboob_cpu"),
        graph_(sched_, dep_.contexts()),
        prof_(dep_.AddStage(
            std::make_unique<StageProfiler>(dep_, MakeProfilerOptions(options)))),
        accept_ch_(sched_) {
    dep_.sampling().Configure(profiler::SamplingConfig{
        options.sample_rate,
        options.sample_seed != 0 ? options.sample_seed : options.seed});
    if (options.live) {
      obs::live::LiveOptions lo;
      lo.history_bytes = options.live_history_bytes;
      daemon_ = std::make_unique<obs::live::Whodunitd>(sched_, lo);
      dep_.AttachLive(daemon_.get());
      // Type names interned once; per-stage span names are interned in
      // Run() after the stage graph is built.
      http_request_sym_ = daemon_->symbols().Intern("http_request");
      cache_hit_sym_ = daemon_->symbols().Intern("cache_hit");
      cache_miss_sym_ = daemon_->symbols().Intern("cache_miss");
    }
  }

  SedaServerResult Run(profiler::Profile* out_profile = nullptr);

  void SetShard(size_t index, size_t count) { dep_.set_shard(index, count); }

 private:
  static StageProfiler::Options MakeProfilerOptions(const SedaServerOptions& options) {
    StageProfiler::Options po;
    po.name = "haboob";
    po.mode = options.mode;
    po.sample_period = workload::kSamplePeriod;
    po.costs.per_sample = workload::kPerSampleCost;
    po.costs.per_call = workload::kPerCallCost;
    po.costs.per_message_context = workload::kPerMessageContextCost;
    return po;
  }

  ThreadProfile& TpOf(StageId stage, int worker) {
    return *worker_tps_.at(stage).at(static_cast<size_t>(worker));
  }

  // Unsampled elements skip the per-element context-concatenation
  // cost: that work really is elided for them (stage.cc never touches
  // the context tree), which is the overhead sampling buys back.
  sim::SimTime TrackingCost(bool sampled) const {
    return TracksTransactions(options_.mode) && sampled ? workload::kSedaTrackingCost : 0;
  }

  sim::Task<void> Charge(StageGraph::WorkerContext& wc, sim::SimTime cost) {
    ThreadProfile& tp = TpOf(wc.stage, wc.worker);
    co_await cpu_.Consume(prof_.ChargeCpu(
        tp, cost + workload::kSedaStageDispatchCost + TrackingCost(wc.sampled)));
  }

  // Each SEDA stage gets its own track in the live daemon, so the
  // transaction's spans are opened/closed against the stage's name
  // directly rather than through StageProfiler's (single) stage name.
  uint64_t TxnOf(uint64_t handle) const {
    const ReqState* st = requests_.Find(handle);
    return st == nullptr ? 0 : st->txn;
  }
  // A request's state. requests_ is an open-addressing table, so the
  // reference is valid only until the next insert or erase: a stage
  // looks its state up again after every co_await.
  ReqState& Req(uint64_t handle) { return *requests_.Find(handle); }
  void LiveJoinStage(const StageGraph::WorkerContext& wc) {
    if (daemon_ != nullptr) {
      daemon_->JoinSpan(TxnOf(wc.payload), stage_syms_[wc.stage], /*link=*/0,
                        daemon_->now(), wc.queue_wait_ns);
    }
  }
  void LiveLeaveStage(const StageGraph::WorkerContext& wc) {
    if (daemon_ != nullptr) {
      daemon_->EndSpan(TxnOf(wc.payload), stage_syms_[wc.stage], daemon_->now());
    }
  }

  void BuildStages() {
    listen_ = graph_.AddStage("ListenStage", 1, [this](auto& wc) -> sim::Task<void> {
      if (daemon_ != nullptr && wc.sampled) {
        ReqState& st = Req(wc.payload);
        st.txn = daemon_->BeginTxn(stage_syms_[listen_], daemon_->now());
        daemon_->SetTxnType(st.txn, http_request_sym_);
      }
      co_await Charge(wc, workload::kAcceptCost);
      LiveLeaveStage(wc);
      wc.EnqueueTo(http_server_, wc.payload);
    });
    http_server_ = graph_.AddStage("HttpServer", options_.workers_per_stage,
                                   [this](auto& wc) -> sim::Task<void> {
                                     LiveJoinStage(wc);
                                     co_await Charge(wc, sim::Micros(12));
                                     LiveLeaveStage(wc);
                                     wc.EnqueueTo(read_, wc.payload);
                                   });
    read_ = graph_.AddStage("ReadStage", options_.workers_per_stage,
                            [this](auto& wc) -> sim::Task<void> {
                              LiveJoinStage(wc);
                              co_await Charge(wc, sim::Micros(15));
                              LiveLeaveStage(wc);
                              wc.EnqueueTo(http_recv_, wc.payload);
                            });
    http_recv_ = graph_.AddStage("HttpRecv", options_.workers_per_stage,
                                 [this](auto& wc) -> sim::Task<void> {
                                   LiveJoinStage(wc);
                                   co_await Charge(wc, workload::kHttpParseCost);
                                   LiveLeaveStage(wc);
                                   wc.EnqueueTo(cache_, wc.payload);
                                 });
    cache_ = graph_.AddStage("CacheStage", options_.workers_per_stage,
                             [this](auto& wc) -> sim::Task<void> {
                               LiveJoinStage(wc);
                               co_await Charge(wc, workload::kCacheLookupCost);
                               const ReqState& st = Req(wc.payload);
                               const bool hit = object_cache_.Lookup(st.object);
                               if (daemon_ != nullptr) {
                                 // The cache outcome is this request's real
                                 // type; re-label the live transaction.
                                 daemon_->SetTxnType(
                                     st.txn, hit ? cache_hit_sym_ : cache_miss_sym_);
                               }
                               LiveLeaveStage(wc);
                               if (hit) {
                                 ++hits_;
                                 wc.EnqueueTo(write_, wc.payload);
                               } else {
                                 ++misses_;
                                 wc.EnqueueTo(miss_, wc.payload);
                               }
                             });
    miss_ = graph_.AddStage("MissStage", options_.workers_per_stage,
                            [this](auto& wc) -> sim::Task<void> {
                              LiveJoinStage(wc);
                              co_await Charge(wc, sim::Micros(20));
                              LiveLeaveStage(wc);
                              wc.EnqueueTo(file_io_, wc.payload);
                            });
    file_io_ = graph_.AddStage("FileIoStage", options_.workers_per_stage,
                               [this](auto& wc) -> sim::Task<void> {
                                 LiveJoinStage(wc);
                                 const uint32_t object = Req(wc.payload).object;
                                 // Disk read, then populate the cache.
                                 co_await sim::Delay{sched_, sim::Micros(400)};
                                 const uint64_t bytes = trace_.ObjectBytes(object);
                                 co_await Charge(
                                     wc, static_cast<sim::SimTime>(
                                             static_cast<double>(bytes) * 1.5));
                                 object_cache_.Insert(object);
                                 LiveLeaveStage(wc);
                                 wc.EnqueueTo(write_, wc.payload);
                               });
    write_ = graph_.AddStage("WriteStage", options_.workers_per_stage,
                             [this](auto& wc) -> sim::Task<void> {
                               LiveJoinStage(wc);
                               const uint64_t bytes = trace_.ObjectBytes(Req(wc.payload).object);
                               co_await Charge(
                                   wc, static_cast<sim::SimTime>(static_cast<double>(bytes) *
                                                                 workload::kSedaSendNsPerByte));
                               ReqState& st = Req(wc.payload);
                               bytes_served_ += bytes;
                               ++requests_served_;
                               if (st.next_index < st.objects.size()) {
                                 st.object = st.objects[st.next_index++];
                                 LiveLeaveStage(wc);
                                 wc.EnqueueTo(read_, wc.payload);
                               } else {
                                 const uint64_t txn = st.txn;
                                 if (st.client != kOpenLoopClient) {
                                   client_done_[st.client]->Send(1);
                                 }
                                 requests_.Erase(wc.payload);
                                 if (daemon_ != nullptr) {
                                   // Closes the write span too.
                                   daemon_->CompleteTxn(txn, daemon_->now());
                                 }
                               }
                               co_return;
                             });
  }

  sim::Process AcceptPump() {
    for (;;) {
      auto conn = co_await accept_ch_.Receive();
      if (!conn) {
        break;
      }
      // The sampling decision is drawn once per request, here at the
      // transaction's origin; it rides on every queue element the
      // request spawns through the stage graph.
      const bool sampled =
          !TracksTransactions(options_.mode) || dep_.sampling().Decide();
      graph_.InjectExternal(listen_, *conn, sampled);
    }
  }

  sim::Process Client(uint32_t index, uint64_t seed) {
    util::Rng rng(seed);
    for (;;) {
      if (sched_.now() >= options_.duration) {
        break;
      }
      const uint64_t handle = next_handle_++;
      ReqState st;
      st.client = index;
      st.objects = trace_.DrawConnection(rng);
      st.object = st.objects[0];
      st.next_index = 1;
      requests_.Upsert(handle, std::move(st));
      accept_ch_.Send(handle);
      auto done = co_await client_done_[index]->Receive();
      if (!done) {
        break;
      }
    }
  }

  // Open-loop load: one generator stands in for ~10k logical clients,
  // injecting requests on an arrival clock instead of waiting for
  // completions (src/workload/arrivals.h).
  sim::Process OpenLoopGenerator(double tps, uint64_t seed) {
    util::Rng base(seed);
    workload::ArrivalProcess arrivals(options_.arrivals, tps, base.NextU64());
    util::Rng draw(base.NextU64());
    for (;;) {
      co_await sim::Delay{sched_, arrivals.NextInterarrival()};
      if (sched_.now() >= options_.duration) {
        break;
      }
      const uint64_t handle = next_handle_++;
      ReqState st;
      st.client = kOpenLoopClient;
      st.objects = trace_.DrawConnection(draw);
      st.object = st.objects[0];
      st.next_index = 1;
      requests_.Upsert(handle, std::move(st));
      accept_ch_.Send(handle);
    }
  }

  SedaServerOptions options_;
  sim::Scheduler sched_;
  sim::CpuResource cpu_;
  // Declared before graph_, which binds to its context tree.
  profiler::Deployment dep_;
  StageGraph graph_;
  StageProfiler& prof_;
  sim::Channel<uint64_t> accept_ch_;
  workload::WebTrace trace_;
  std::unique_ptr<obs::live::Whodunitd> daemon_;

  StageId listen_ = 0, http_server_ = 0, read_ = 0, http_recv_ = 0, cache_ = 0, miss_ = 0,
          file_io_ = 0, write_ = 0;
  // Stage/type names pre-interned against the daemon's symbol table:
  // stage_syms_ is indexed by StageId (filled in Run() once the stage
  // graph exists), the type syms in the ctor.
  std::vector<util::SymId> stage_syms_;
  util::SymId http_request_sym_ = 0;
  util::SymId cache_hit_sym_ = 0;
  util::SymId cache_miss_sym_ = 0;
  std::map<StageId, std::vector<ThreadProfile*>> worker_tps_;
  // Keyed by request handle; never iterated, so its order never
  // reaches an output.
  util::RobinHoodMap<uint64_t, ReqState> requests_;
  std::vector<std::unique_ptr<sim::Channel<uint8_t>>> client_done_;
  util::LruSet object_cache_{workload::kProxyCacheObjects};
  uint64_t next_handle_ = 1;

  uint64_t bytes_served_ = 0;
  uint64_t requests_served_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

SedaServerResult Haboob::Run(profiler::Profile* out_profile) {
  BuildStages();
  if (daemon_ != nullptr) {
    for (StageId s = 0; s < graph_.stage_count(); ++s) {
      stage_syms_.push_back(daemon_->symbols().Intern(graph_.StageName(s)));
    }
  }
  graph_.set_tracking(TracksTransactions(options_.mode));
  for (StageId s = 0; s < graph_.stage_count(); ++s) {
    const int workers = graph_.stage(s).workers();
    for (int w = 0; w < workers; ++w) {
      worker_tps_[s].push_back(
          &prof_.CreateThread(graph_.StageName(s) + "_w" + std::to_string(w)));
    }
  }
  graph_.set_context_listener(
      [this](StageId stage, int worker, context::NodeId node, bool sampled) {
        ThreadProfile& tp = TpOf(stage, worker);
        prof_.SetSampled(tp, sampled);
        prof_.SetLocalContext(tp, node);
      });
  dep_.set_element_namer([this](context::ElementKind kind, uint32_t id) {
    return kind == context::ElementKind::kStage ? graph_.StageName(id)
                                                : "handler:" + std::to_string(id);
  });

  const bool open_loop =
      options_.arrivals.kind != workload::ArrivalKind::kClosed;
  if (!open_loop) {
    for (int c = 0; c < options_.clients; ++c) {
      client_done_.push_back(std::make_unique<sim::Channel<uint8_t>>(sched_));
    }
  }
  graph_.Start();
  sim::Spawn(sched_, AcceptPump());
  if (open_loop) {
    const auto clients = static_cast<uint64_t>(options_.clients);
    const uint64_t per_gen =
        std::max<uint64_t>(1, options_.arrivals.clients_per_generator);
    const auto gens = static_cast<int>((clients + per_gen - 1) / per_gen);
    // Haboob clients have no think time; the 0 mean falls back to
    // 1 req/client/sec unless --offered-load pins the aggregate.
    const double tps = workload::EffectiveOfferedTps(
        options_.arrivals, clients, /*per_client_think_mean=*/0);
    util::Rng gen_seeder(options_.seed ^ 0x9E3779B97F4A7C15ULL);
    for (int g = 0; g < gens; ++g) {
      sim::Spawn(sched_, OpenLoopGenerator(tps / gens, gen_seeder.NextU64()));
    }
  } else {
    util::Rng seeder(options_.seed);
    for (int c = 0; c < options_.clients; ++c) {
      sim::Spawn(sched_, Client(static_cast<uint32_t>(c), seeder.NextU64()));
    }
  }

  const sim::SimTime warmup = options_.duration / 5;
  uint64_t warm_bytes = 0;
  sched_.ScheduleAt(warmup, [&] { warm_bytes = bytes_served_; });
  sched_.RunUntil(options_.duration);

  accept_ch_.Close();
  graph_.Stop();
  for (auto& ch : client_done_) {
    ch->Close();
  }
  sched_.Run();

  SedaServerResult result;
  result.requests = requests_served_;
  result.cache_hits = hits_;
  result.cache_misses = misses_;
  const double window_s = sim::ToSeconds(options_.duration - warmup);
  result.throughput_mbps =
      static_cast<double>(bytes_served_ - warm_bytes) * 8.0 / 1e6 / window_s;
  result.profile_text = prof_.RenderTransactionalProfile(0.001);

  result.total_cpu_ns = prof_.total_cpu_time();
  const context::ContextTree& tree = dep_.contexts();
  for (const auto& [label, cct] : prof_.LabeledCcts()) {
    if (label.parts.empty()) {
      continue;
    }
    const context::NodeId ctxt = dep_.synopses().Lookup(label.parts.back());
    if (tree.Empty(ctxt) ||
        tree.LastElement(ctxt) != context::Element{context::ElementKind::kStage, write_}) {
      continue;
    }
    bool via_miss = false;
    for (context::NodeId walk = ctxt; !tree.Empty(walk); walk = tree.ParentOf(walk)) {
      if (tree.LastElement(walk) == context::Element{context::ElementKind::kStage, miss_}) {
        via_miss = true;
      }
    }
    ++result.write_stage_context_count;
    if (via_miss) {
      result.write_miss_cpu_ns += cct->TotalCpuTime();
    } else {
      result.write_hit_cpu_ns += cct->TotalCpuTime();
    }
  }
  if (result.total_cpu_ns > 0) {
    const double total = static_cast<double>(result.total_cpu_ns);
    result.write_hit_share = 100.0 * static_cast<double>(result.write_hit_cpu_ns) / total;
    result.write_miss_share = 100.0 * static_cast<double>(result.write_miss_cpu_ns) / total;
  }
  if (out_profile != nullptr) {
    *out_profile = profiler::Profile::Of(dep_);
  }
  if (daemon_ != nullptr) {
    // Flush the partial publish batch and drain before snapshotting,
    // so the exports reflect every published event.
    daemon_->Shutdown();
    sched_.Run();
    result.live_top_text = daemon_->RenderTop();
    result.live_span_json = daemon_->ExportSpansJson();
  }
  return result;
}

SedaServerResult RunShardedSedaServer(const SedaServerOptions& options) {
  auto runs = RunShards(options, [&options](const SedaServerOptions& shard_options, size_t shard,
                                            profiler::Profile* profile) {
    Haboob haboob(shard_options);
    haboob.SetShard(shard, static_cast<size_t>(options.shards));
    return haboob.Run(profile);
  });

  SedaServerResult merged;
  profiler::Profile profile;
  std::ostringstream live_top, live_spans;
  for (size_t shard = 0; shard < runs.size(); ++shard) {
    const SedaServerResult& r = runs[shard].result;
    merged.throughput_mbps += r.throughput_mbps;
    merged.requests += r.requests;
    merged.cache_hits += r.cache_hits;
    merged.cache_misses += r.cache_misses;
    // Every shard sees the same hit/miss context pair, so the merged
    // count is the max, not the sum.
    merged.write_stage_context_count =
        std::max(merged.write_stage_context_count, r.write_stage_context_count);
    merged.write_hit_cpu_ns += r.write_hit_cpu_ns;
    merged.write_miss_cpu_ns += r.write_miss_cpu_ns;
    merged.total_cpu_ns += r.total_cpu_ns;
    profile.Fold(runs[shard].profile);
    if (options.live) {
      live_top << "=== shard " << shard << " ===\n" << r.live_top_text;
      live_spans << "=== shard " << shard << " ===\n" << r.live_span_json;
    }
  }
  if (merged.total_cpu_ns > 0) {
    const double total = static_cast<double>(merged.total_cpu_ns);
    merged.write_hit_share = 100.0 * static_cast<double>(merged.write_hit_cpu_ns) / total;
    merged.write_miss_share = 100.0 * static_cast<double>(merged.write_miss_cpu_ns) / total;
  }
  merged.profile_text = profiler::Stitcher(profile).RenderStage("haboob", 0.001, " (merged)");
  merged.live_top_text = live_top.str();
  merged.live_span_json = live_spans.str();
  return merged;
}

}  // namespace

SedaServerResult RunSedaServer(const SedaServerOptions& options) {
  if (options.shards > 1) {
    return RunShardedSedaServer(options);
  }
  Haboob haboob(options);
  return haboob.Run();
}

}  // namespace whodunit::apps
