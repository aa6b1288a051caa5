#include "src/apps/miniproxy/miniproxy.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/apps/shards.h"
#include "src/events/event_loop.h"
#include "src/http/http.h"
#include "src/obs/metrics.h"
#include "src/profiler/deployment.h"
#include "src/profiler/profile.h"
#include "src/profiler/stage_profiler.h"
#include "src/profiler/stitcher.h"
#include "src/sim/channel.h"
#include "src/sim/cpu.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"
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
using events::EventLoop;
using profiler::StageProfiler;
using profiler::ThreadProfile;

// Connections injected by an open-loop generator carry this sentinel
// client id: no closed-loop coroutine is waiting on client_done_.
constexpr uint32_t kOpenLoopClient = 0xFFFFFFFFu;

struct ClientConn {
  uint32_t client;
  util::PooledVec<uint32_t> objects;  // Zipf-drawn, one per request
};

struct OriginRequest {
  uint64_t req_handle;
  uint32_t object;
};

class Proxy {
 public:
  explicit Proxy(const MiniproxyOptions& options)
      : options_(options),
        proxy_cpu_(sched_, workload::kProxyCores, "squid_cpu"),
        origin_cpu_(sched_, 2, "origin_cpu"),
        loop_(sched_, dep_.contexts()),
        prof_(dep_.AddStage(
            std::make_unique<StageProfiler>(dep_, MakeProfilerOptions(options)))),
        origin_ch_(sched_, workload::kLanLatency),
        accept_ch_(sched_),
        cache_(workload::kProxyCacheObjects) {
    dep_.sampling().Configure(profiler::SamplingConfig{
        options.sample_rate,
        options.sample_seed != 0 ? options.sample_seed : options.seed});
  }

  MiniproxyResult Run(profiler::Profile* out_profile = nullptr);

  void SetShard(size_t index, size_t count) { dep_.set_shard(index, count); }

 private:
  static StageProfiler::Options MakeProfilerOptions(const MiniproxyOptions& options) {
    StageProfiler::Options po;
    po.name = "squid";
    po.mode = options.mode;
    po.sample_period = workload::kSamplePeriod;
    po.costs.per_sample = workload::kPerSampleCost;
    po.costs.per_call = workload::kPerCallCost;
    po.costs.per_message_context = workload::kPerMessageContextCost;
    return po;
  }

  // Per-dispatch cost of the instrumented event library when
  // transaction tracking is on (context concatenation + annotation).
  // Unsampled events skip it: the library elides the concatenation for
  // them, which is the overhead sampling buys back.
  sim::SimTime TrackingCost() const {
    return TracksTransactions(options_.mode) && loop_.current_sampled()
               ? workload::kPerEventTrackingCost
               : 0;
  }

  sim::Task<void> Charge(sim::SimTime cost) {
    co_await proxy_cpu_.Consume(prof_.ChargeCpu(*loop_tp_, cost));
  }

  struct ReqState {
    uint32_t client;
    uint32_t object = 0;
    util::PooledVec<uint32_t> objects;
    size_t next_index = 0;
  };

  // A connection's state. requests_ is an open-addressing table, so
  // the reference is valid only until the next insert or erase: a
  // handler looks its state up again after every co_await.
  ReqState& Req(uint64_t handle) { return *requests_.Find(handle); }

  void RegisterHandlers() {
    accept_h_ = loop_.RegisterHandler(
        "httpAccept", [this](EventLoop::HandlerContext& hc) -> sim::Task<void> {
          co_await Charge(workload::kAcceptCost + TrackingCost());
          hc.loop.AddEvent(read_h_, hc.payload);
        });

    read_h_ = loop_.RegisterHandler(
        "clientReadRequest", [this](EventLoop::HandlerContext& hc) -> sim::Task<void> {
          co_await Charge(workload::kHttpParseCost + workload::kCacheLookupCost +
                          TrackingCost());
          if (cache_.Lookup(Req(hc.payload).object)) {
            ++hits_;
            hc.loop.AddEvent(write_h_, hc.payload);
          } else {
            ++misses_;
            hc.loop.AddEvent(connect_h_, hc.payload);
          }
        });

    connect_h_ = loop_.RegisterHandler(
        "commConnectHandle", [this](EventLoop::HandlerContext& hc) -> sim::Task<void> {
          co_await Charge(sim::Micros(40) + TrackingCost());
          // Register interest in the origin's reply NOW (this is where
          // the transaction context is captured), then fire the I/O.
          pending_replies_.Upsert(hc.payload, hc.loop.MakeEvent(reply_h_, hc.payload));
          origin_ch_.Send(OriginRequest{hc.payload, Req(hc.payload).object});
        });

    reply_h_ = loop_.RegisterHandler(
        "httpReadReply", [this](EventLoop::HandlerContext& hc) -> sim::Task<void> {
          const uint32_t object = Req(hc.payload).object;
          const uint64_t bytes = trace_.ObjectBytes(object);
          co_await Charge(static_cast<sim::SimTime>(static_cast<double>(bytes) *
                                                    workload::kProxyNsPerByte / 2) +
                          TrackingCost());
          cache_.Insert(object);
          hc.loop.AddEvent(write_h_, hc.payload);
        });

    write_h_ = loop_.RegisterHandler(
        "commHandleWrite", [this](EventLoop::HandlerContext& hc) -> sim::Task<void> {
          const uint64_t bytes = trace_.ObjectBytes(Req(hc.payload).object);
          co_await Charge(static_cast<sim::SimTime>(static_cast<double>(bytes) *
                                                    workload::kProxyNsPerByte) +
                          TrackingCost());
          ReqState& st = Req(hc.payload);
          bytes_served_ += bytes;
          ++requests_served_;
          if (st.next_index < st.objects.size()) {
            // Persistent connection: next request on the same fd. The
            // event context loops back to clientReadRequest — the
            // pruning case of §4.1.
            st.object = st.objects[st.next_index++];
            hc.loop.AddEvent(read_h_, hc.payload);
          } else {
            if (st.client != kOpenLoopClient) {
              client_done_[st.client]->Send(1);
            }
            requests_.Erase(hc.payload);
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
      const uint64_t handle = next_handle_++;
      ReqState st;
      st.client = conn->client;
      st.objects = std::move(conn->objects);
      st.object = st.objects.empty() ? 0 : st.objects[0];
      st.next_index = 1;
      requests_.Upsert(handle, std::move(st));
      // The sampling decision is drawn once per connection, here at
      // the transaction's origin; it rides on every event the
      // connection spawns.
      const bool sampled =
          !TracksTransactions(options_.mode) || dep_.sampling().Decide();
      loop_.AddExternalEvent(accept_h_, handle, sampled);
    }
  }

  sim::Process OriginServer() {
    for (;;) {
      auto req = co_await origin_ch_.Receive();
      if (!req) {
        break;
      }
      sim::Spawn(sched_, OriginWorker(*req));
    }
  }

  sim::Process OriginWorker(OriginRequest req) {
    const uint64_t bytes = trace_.ObjectBytes(req.object);
    co_await origin_cpu_.Consume(
        workload::kOriginServiceCost +
        static_cast<sim::SimTime>(static_cast<double>(bytes) * 2.0));
    // Network latency back to the proxy, then fire the armed event.
    co_await sim::Delay{sched_, workload::kLanLatency};
    if (events::Event* armed = pending_replies_.Find(req.req_handle)) {
      loop_.Post(*armed);
      pending_replies_.Erase(req.req_handle);
    }
  }

  sim::Process Client(uint32_t index, uint64_t seed) {
    util::Rng rng(seed);
    for (;;) {
      if (sched_.now() >= options_.duration) {
        break;
      }
      ClientConn conn;
      conn.client = index;
      conn.objects = trace_.DrawConnection(rng);
      accept_ch_.Send(std::move(conn));
      auto done = co_await client_done_[index]->Receive();
      if (!done) {
        break;
      }
    }
  }

  // Open-loop load: one generator stands in for ~10k logical clients,
  // injecting connections on an arrival clock instead of waiting for
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
      ClientConn conn;
      conn.client = kOpenLoopClient;
      conn.objects = trace_.DrawConnection(draw);
      accept_ch_.Send(std::move(conn));
    }
  }

  MiniproxyOptions options_;
  sim::Scheduler sched_;
  sim::CpuResource proxy_cpu_;
  sim::CpuResource origin_cpu_;
  // Declared before loop_, which binds to its context tree.
  profiler::Deployment dep_;
  EventLoop loop_;
  StageProfiler& prof_;
  ThreadProfile* loop_tp_ = nullptr;
  sim::Channel<OriginRequest> origin_ch_;
  sim::Channel<ClientConn> accept_ch_;
  util::LruSet cache_;  // Squid's in-memory object store
  workload::WebTrace trace_;

  events::HandlerId accept_h_ = 0, read_h_ = 0, connect_h_ = 0, reply_h_ = 0, write_h_ = 0;
  // Keyed by connection handle. Neither table is iterated, so their
  // order never reaches an output.
  util::RobinHoodMap<uint64_t, ReqState> requests_;
  util::RobinHoodMap<uint64_t, events::Event> pending_replies_;
  std::vector<std::unique_ptr<sim::Channel<uint8_t>>> client_done_;
  uint64_t next_handle_ = 1;

  uint64_t bytes_served_ = 0;
  uint64_t requests_served_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

MiniproxyResult Proxy::Run(profiler::Profile* out_profile) {
  loop_tp_ = &prof_.CreateThread("event_loop");
  RegisterHandlers();
  loop_.set_tracking(TracksTransactions(options_.mode));
  loop_.set_context_listener([this](context::NodeId node, bool sampled) {
    prof_.SetSampled(*loop_tp_, sampled);
    prof_.SetLocalContext(*loop_tp_, node);
  });
  dep_.set_element_namer([this](context::ElementKind kind, uint32_t id) {
    return kind == context::ElementKind::kHandler ? loop_.HandlerName(id)
                                                  : "stage:" + std::to_string(id);
  });

  const bool open_loop =
      options_.arrivals.kind != workload::ArrivalKind::kClosed;
  if (!open_loop) {
    for (int c = 0; c < options_.clients; ++c) {
      client_done_.push_back(std::make_unique<sim::Channel<uint8_t>>(sched_));
    }
  }
  sim::Spawn(sched_, loop_.Run());
  sim::Spawn(sched_, AcceptPump());
  sim::Spawn(sched_, OriginServer());
  if (open_loop) {
    const auto clients = static_cast<uint64_t>(options_.clients);
    const uint64_t per_gen =
        std::max<uint64_t>(1, options_.arrivals.clients_per_generator);
    const auto gens = static_cast<int>((clients + per_gen - 1) / per_gen);
    // Miniproxy clients have no think time; the 0 mean falls back to
    // 1 conn/client/sec unless --offered-load pins the aggregate.
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
  origin_ch_.Close();
  loop_.Stop();
  for (auto& ch : client_done_) {
    ch->Close();
  }
  sched_.Run();

  MiniproxyResult result;
  result.requests = requests_served_;
  result.cache_hits = hits_;
  result.cache_misses = misses_;
  result.hit_ratio =
      hits_ + misses_ > 0 ? static_cast<double>(hits_) / static_cast<double>(hits_ + misses_)
                          : 0.0;
  const double window_s = sim::ToSeconds(options_.duration - warmup);
  result.throughput_mbps =
      static_cast<double>(bytes_served_ - warm_bytes) * 8.0 / 1e6 / window_s;
  result.profile_text = prof_.RenderTransactionalProfile(0.001);

  // Count the contexts in which commHandleWrite executed, and the
  // hit/miss path shares.
  result.total_cpu_ns = prof_.total_cpu_time();
  const context::ContextTree& tree = dep_.contexts();
  for (const auto& [label, cct] : prof_.LabeledCcts()) {
    if (label.parts.empty()) {
      continue;
    }
    const context::NodeId ctxt = dep_.synopses().Lookup(label.parts.back());
    if (tree.Empty(ctxt)) {
      continue;
    }
    const bool ends_in_write =
        tree.LastElement(ctxt) == context::Element{context::ElementKind::kHandler, write_h_};
    bool via_reply = false;
    for (context::NodeId walk = ctxt; !tree.Empty(walk); walk = tree.ParentOf(walk)) {
      if (tree.LastElement(walk) == context::Element{context::ElementKind::kHandler, reply_h_}) {
        via_reply = true;
      }
    }
    if (ends_in_write) {
      ++result.write_handler_context_count;
      if (via_reply) {
        result.miss_path_cpu_ns += cct->TotalCpuTime();
      } else {
        result.hit_path_cpu_ns += cct->TotalCpuTime();
      }
    }
  }
  if (result.total_cpu_ns > 0) {
    const double total = static_cast<double>(result.total_cpu_ns);
    result.hit_path_share = 100.0 * static_cast<double>(result.hit_path_cpu_ns) / total;
    result.miss_path_share = 100.0 * static_cast<double>(result.miss_path_cpu_ns) / total;
  }
  if (out_profile != nullptr) {
    *out_profile = profiler::Profile::Of(dep_);
  }
  return result;
}

MiniproxyResult RunShardedMiniproxy(const MiniproxyOptions& options) {
  auto runs = RunShards(options, [&options](const MiniproxyOptions& shard_options, size_t shard,
                                            profiler::Profile* profile) {
    Proxy proxy(shard_options);
    proxy.SetShard(shard, static_cast<size_t>(options.shards));
    return proxy.Run(profile);
  });

  MiniproxyResult merged;
  profiler::Profile profile;
  for (size_t shard = 0; shard < runs.size(); ++shard) {
    const MiniproxyResult& r = runs[shard].result;
    merged.throughput_mbps += r.throughput_mbps;
    merged.requests += r.requests;
    merged.cache_hits += r.cache_hits;
    merged.cache_misses += r.cache_misses;
    // Every shard sees the same hit/miss context pair, so the merged
    // count is the max, not the sum.
    merged.write_handler_context_count =
        std::max(merged.write_handler_context_count, r.write_handler_context_count);
    merged.hit_path_cpu_ns += r.hit_path_cpu_ns;
    merged.miss_path_cpu_ns += r.miss_path_cpu_ns;
    merged.total_cpu_ns += r.total_cpu_ns;
    profile.Fold(runs[shard].profile);
  }
  if (merged.cache_hits + merged.cache_misses > 0) {
    merged.hit_ratio = static_cast<double>(merged.cache_hits) /
                       static_cast<double>(merged.cache_hits + merged.cache_misses);
  }
  if (merged.total_cpu_ns > 0) {
    const double total = static_cast<double>(merged.total_cpu_ns);
    merged.hit_path_share = 100.0 * static_cast<double>(merged.hit_path_cpu_ns) / total;
    merged.miss_path_share = 100.0 * static_cast<double>(merged.miss_path_cpu_ns) / total;
  }
  merged.profile_text = profiler::Stitcher(profile).RenderStage("squid", 0.001, " (merged)");
  return merged;
}

}  // namespace

MiniproxyResult RunMiniproxy(const MiniproxyOptions& options) {
  if (options.shards > 1) {
    return RunShardedMiniproxy(options);
  }
  Proxy proxy(options);
  return proxy.Run();
}

}  // namespace whodunit::apps
