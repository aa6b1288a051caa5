#include "src/apps/minihttpd/minihttpd.h"

#include <algorithm>
#include <initializer_list>
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
#include "src/shm/flow_detector.h"
#include "src/shm/guest_code.h"
#include "src/shm/section_cache.h"
#include "src/sim/channel.h"
#include "src/sim/cpu.h"
#include "src/sim/lock.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"
#include "src/util/pooled_vec.h"
#include "src/util/rng.h"
#include "src/util/robin_hood.h"
#include "src/util/zipf.h"
#include "src/vm/interpreter.h"
#include "src/workload/arrivals.h"
#include "src/workload/calibration.h"
#include "src/workload/webtrace.h"

namespace whodunit::apps {
namespace {

using callpath::ProfilerMode;
using callpath::TracksTransactions;
using profiler::StageProfiler;
using profiler::ThreadProfile;

// Guest memory layout.
constexpr uint64_t kQueueBase = 0x1000;
constexpr uint64_t kCounterAddr = 0x5000;
constexpr uint64_t kFreeListHead = 0x6000;
constexpr uint64_t kBlockBase = 0x10000;
constexpr uint64_t kBlockStride = 64;
constexpr int kPoolBlocks = 64;
// Per-worker scratch addresses for ap_queue_pop's out parameters.
constexpr uint64_t kScratchBase = 0x20000;

// Connections injected by an open-loop generator carry this sentinel
// client id: no closed-loop coroutine is waiting on client_done_.
constexpr uint32_t kOpenLoopClient = 0xFFFFFFFFu;

struct Connection {
  uint32_t client;
  util::PooledVec<uint32_t> objects;
  uint64_t txn = 0;  // live-observability transaction id
  // The listener's per-connection sampling decision, carried to the
  // worker beside the payload (the queue itself carries no synopsis).
  bool sampled = true;
  // When the listener queued the connection: the worker's span reports
  // now() - enqueued_ns as its kQueueWait component.
  int64_t enqueued_ns = 0;
};

class Server {
 public:
  explicit Server(const MinihttpdOptions& options)
      : options_(options),
        cpu_(sched_, workload::kWebServerCores, "apache_cpu"),
        prof_(dep_.AddStage(
            std::make_unique<StageProfiler>(dep_, MakeProfilerOptions(options)))),
        detector_(MakeDetector()),
        queue_mutex_(sched_, "fd_queue_mutex"),
        alloc_mutex_(sched_, "pool_mutex"),
        stats_mutex_(sched_, "stats_mutex"),
        items_(sched_),
        accept_ch_(sched_),
        rng_(options.seed) {
    push_prog_ = shm::ApQueuePush(queue_mutex_.id());
    pop_prog_ = shm::ApQueuePop(queue_mutex_.id());
    alloc_prog_ = shm::MemAlloc(alloc_mutex_.id());
    free_prog_ = shm::MemFree(alloc_mutex_.id());
    counter_prog_ = shm::CounterIncrement(stats_mutex_.id());

    // Seed the allocator's free list (native initialization, unseen by
    // the detector, like state set up before profiling attaches).
    uint64_t head = 0;
    for (int i = 0; i < kPoolBlocks; ++i) {
      const uint64_t blk = kBlockBase + static_cast<uint64_t>(i) * kBlockStride;
      mem_.Write(blk, head);
      head = blk;
    }
    mem_.Write(kFreeListHead, head);

    dep_.sampling().Configure(profiler::SamplingConfig{
        options.sample_rate,
        options.sample_seed != 0 ? options.sample_seed : options.seed});

    detector_.set_flow_callback([this](const shm::FlowEvent& ev) {
      prof_.AdoptCtxt(*thread_profiles_[ev.consumer], ev.ctxt);
      if (ev.lock_id == queue_mutex_.id()) {
        queue_flow_seen_ = true;
      }
    });

    if (options.live) {
      obs::live::LiveOptions lo;
      lo.history_bytes = options.live_history_bytes;
      daemon_ = std::make_unique<obs::live::Whodunitd>(sched_, lo);
      dep_.AttachLive(daemon_.get());
      // Intern the two connection-type names once so the per-accept
      // publish path is pure integer work.
      conn_small_sym_ = daemon_->symbols().Intern("conn_small");
      conn_large_sym_ = daemon_->symbols().Intern("conn_large");
    }
  }

  MinihttpdResult Run(profiler::Profile* out_profile = nullptr);

  void SetShard(size_t index, size_t count) { dep_.set_shard(index, count); }

 private:
  static StageProfiler::Options MakeProfilerOptions(const MinihttpdOptions& options) {
    StageProfiler::Options po;
    po.name = "apache";
    po.mode = options.mode;
    po.sample_period = workload::kSamplePeriod;
    po.costs.per_sample = workload::kPerSampleCost;
    po.costs.per_call = workload::kPerCallCost;
    po.costs.per_message_context = workload::kPerMessageContextCost;
    return po;
  }

  shm::FlowDetector MakeDetector() {
    return shm::FlowDetector([this](vm::ThreadId t) {
      return prof_.CurrentCtxtId(*thread_profiles_[t]);
    });
  }

  // Runs a guest critical section for simulated thread `t`, returning
  // the virtual CPU time it costs. Whodunit emulates critical sections
  // whose lock still might carry transaction flow; everything else
  // (and every other profiling mode) runs directly.
  // `regs` are the register values the section starts from.
  // `sampled` is the current transaction's sampling decision: an
  // unsampled section runs directly (no detector, no flow summary),
  // exactly like a non-transactional profiling mode would run it.
  struct RegValue {
    size_t reg;
    uint64_t value;
  };
  sim::SimTime RunGuest(const vm::Program& prog, vm::ThreadId t, uint64_t lock_id,
                        std::initializer_list<RegValue> regs, bool sampled = true) {
    vm::CpuState& cpu_state = guest_cpus_[t];
    for (const RegValue& r : regs) {
      cpu_state.regs[r.reg] = r.value;
    }
    const bool emulate =
        TracksTransactions(options_.mode) && sampled && detector_.ShouldEmulate(lock_id);
    // Emulated sections go through the flow-summary cache: the first
    // run of each section records its effects, steady-state runs
    // replay them without re-entering the MiniVM dispatch loop.
    const vm::ExecResult res =
        emulate ? section_cache_.Run(interp_, prog, t, cpu_state, mem_, &detector_)
                : interp_.Execute(prog, t, cpu_state, mem_, vm::Interpreter::Mode::kDirect);
    if (emulate) {
      ++emulated_sections_;
    }
    return workload::CyclesToNs(res.guest_cycles);
  }

  sim::Process Listener() {
    ThreadProfile& tp = *thread_profiles_[0];
    const auto main_fn = prof_.RegisterFunction("listener_main");
    const auto accept_fn = prof_.RegisterFunction("apr_socket_accept");
    const auto push_fn = prof_.RegisterFunction("ap_queue_push");
    auto main_frame = std::make_unique<StageProfiler::FrameGuard>(prof_, tp, main_fn);
    for (;;) {
      auto conn = co_await accept_ch_.Receive();
      if (!conn) {
        break;
      }
      // Each accepted connection begins a fresh transaction.
      prof_.ResetTransaction(tp);
      const bool sampled = prof_.IsSampled(tp);
      conn->sampled = sampled;
      if (daemon_ != nullptr) {
        // Type the live transaction by the connection's weight; the
        // origin span stays open until a worker completes it, so its
        // duration covers the queue wait too.
        uint64_t total_bytes = 0;
        for (uint32_t object : conn->objects) {
          total_bytes += trace_.ObjectBytes(object);
        }
        prof_.LiveBegin(tp, total_bytes >= 64 * 1024 ? conn_large_sym_
                                                     : conn_small_sym_);
        conn->txn = prof_.live_txn(tp);
      }
      {
        auto f = prof_.EnterFrame(tp, accept_fn);
        co_await cpu_.Consume(prof_.ChargeCpu(tp, workload::kAcceptCost));
      }
      {
        auto f = prof_.EnterFrame(tp, push_fn);
        co_await queue_mutex_.Acquire(/*tag=*/0);
        const uint64_t handle = StashConnection(std::move(*conn));
        const sim::SimTime cost =
            RunGuest(push_prog_, /*t=*/0, queue_mutex_.id(),
                     {{0, kQueueBase}, {1, handle}, {2, handle + 1}}, sampled);
        co_await cpu_.Consume(prof_.ChargeCpu(tp, cost));
        queue_mutex_.Release(0);
      }
      if (sampled) {
        ++sampled_in_queue_;
      }
      items_.Send(1);
    }
    main_frame.reset();
  }

  // The VM queue carries a small integer handle; connection metadata
  // lives beside it (as Apache's fd + pool pointers reference heap
  // state).
  uint64_t StashConnection(Connection&& conn) {
    const uint64_t handle = next_handle_++;
    in_flight_.Upsert(handle, std::move(conn)).enqueued_ns = sched_.now();
    return handle;
  }

  sim::Process Worker(int index) {
    const auto vm_thread = static_cast<vm::ThreadId>(1 + index);
    ThreadProfile& tp = *thread_profiles_[vm_thread];
    const auto pop_fn = prof_.RegisterFunction("ap_queue_pop");
    const auto process_fn = prof_.RegisterFunction("ap_process_connection");
    const auto parse_fn = prof_.RegisterFunction("http_parse");
    const auto sendfile_fn = prof_.RegisterFunction("sendfile");
    const uint64_t out_sd = kScratchBase + vm_thread * 64;
    const uint64_t out_p = out_sd + 8;

    for (;;) {
      auto token = co_await items_.Receive();
      if (!token) {
        break;
      }
      uint64_t handle = 0;
      {
        auto f = prof_.EnterFrame(tp, pop_fn);
        co_await queue_mutex_.Acquire(/*tag=*/0);
        // The pop must be emulated only while a sampled connection may
        // still be queued — emulating it is what fires the flow
        // adoption. When every queued connection is unsampled the pop
        // runs directly, which is where the sampled-rate savings on
        // the §3 machinery come from.
        const sim::SimTime cost =
            RunGuest(pop_prog_, vm_thread, queue_mutex_.id(),
                     {{0, kQueueBase}, {5, out_sd}, {6, out_p}}, sampled_in_queue_ > 0);
        // The pop's consume window fired the flow callback: this
        // worker now executes under the listener's transaction context.
        co_await cpu_.Consume(prof_.ChargeCpu(tp, cost));
        queue_mutex_.Release(0);
        handle = guest_cpus_[vm_thread].regs[7];
      }
      Connection* stashed = in_flight_.Find(handle);
      if (stashed == nullptr) {
        continue;
      }
      const Connection conn = std::move(*stashed);
      in_flight_.Erase(handle);
      if (conn.sampled) {
        --sampled_in_queue_;
      }
      // Adopt the connection's sampling decision for all the work done
      // on its behalf (the queue carried the bit, not a synopsis).
      prof_.SetSampled(tp, conn.sampled);
      prof_.LiveJoin(tp, conn.txn,
                     std::max<int64_t>(0, sched_.now() - conn.enqueued_ns));

      {
        auto f = prof_.EnterFrame(tp, process_fn);
        for (uint32_t object : conn.objects) {
          if (sched_.now() >= options_.duration) {
            break;  // run over; don't drain a persistent connection
          }
          // Request-scoped pool memory from the shared allocator.
          co_await RunAllocatorOp(tp, vm_thread, alloc_prog_, /*blk=*/0);
          const uint64_t blk = guest_cpus_[vm_thread].regs[1];
          {
            auto pf = prof_.EnterFrame(tp, parse_fn);
            co_await cpu_.Consume(prof_.ChargeCpu(tp, workload::kHttpParseCost));
          }
          const uint64_t bytes = trace_.ObjectBytes(object);
          {
            auto sf = prof_.EnterFrame(tp, sendfile_fn);
            co_await cpu_.Consume(prof_.ChargeCpu(
                tp, static_cast<sim::SimTime>(static_cast<double>(bytes) *
                                              workload::kSendNsPerByte)));
          }
          bytes_served_ += bytes;
          ++requests_;
          // Shared statistics counter (the Figure 2 pattern).
          {
            co_await stats_mutex_.Acquire(0);
            const sim::SimTime cost =
                RunGuest(counter_prog_, vm_thread, stats_mutex_.id(), {{0, kCounterAddr}},
                         prof_.IsSampled(tp));
            co_await cpu_.Consume(prof_.ChargeCpu(tp, cost));
            stats_mutex_.Release(0);
          }
          if (blk != 0) {
            co_await RunAllocatorOp(tp, vm_thread, free_prog_, blk);
          }
        }
      }
      ++connections_done_;
      prof_.LiveComplete(tp);
      if (conn.client != kOpenLoopClient) {
        client_done_[conn.client]->Send(1);
      }
    }
  }

  sim::Task<void> RunAllocatorOp(ThreadProfile& tp, vm::ThreadId vm_thread,
                                 const vm::Program& prog, uint64_t blk) {
    co_await alloc_mutex_.Acquire(0);
    const bool sampled = prof_.IsSampled(tp);
    const sim::SimTime cost =
        blk != 0 ? RunGuest(prog, vm_thread, alloc_mutex_.id(),
                            {{0, kFreeListHead}, {1, blk}}, sampled)
                 : RunGuest(prog, vm_thread, alloc_mutex_.id(), {{0, kFreeListHead}}, sampled);
    co_await cpu_.Consume(prof_.ChargeCpu(tp, cost));
    alloc_mutex_.Release(0);
  }

  // Open-loop load: one generator stands in for ~10k logical clients,
  // injecting connections on an arrival clock instead of waiting for
  // completions. See src/workload/arrivals.h for the determinism
  // contract (per-generator seed stream, shard-split independent of
  // thread count).
  sim::Process OpenLoopGenerator(double tps, uint64_t seed) {
    util::Rng base(seed);
    workload::ArrivalProcess arrivals(options_.arrivals, tps, base.NextU64());
    util::Rng draw(base.NextU64());
    for (;;) {
      co_await sim::Delay{sched_, arrivals.NextInterarrival()};
      if (sched_.now() >= options_.duration) {
        break;
      }
      Connection conn;
      conn.client = kOpenLoopClient;
      conn.objects = trace_.DrawConnection(draw);
      ++connections_;
      accept_ch_.Send(std::move(conn));
    }
  }

  sim::Process Client(uint32_t index, uint64_t seed) {
    util::Rng rng(seed);
    for (;;) {
      if (sched_.now() >= options_.duration) {
        break;
      }
      Connection conn;
      conn.client = index;
      if (options_.persistent_connections) {
        // One connection for the whole run: many requests, no churn.
        for (int i = 0; i < 50000; ++i) {
          for (uint32_t object : trace_.DrawConnection(rng)) {
            conn.objects.push_back(object);
          }
        }
      } else {
        conn.objects = trace_.DrawConnection(rng);
      }
      accept_ch_.Send(std::move(conn));
      auto done = co_await client_done_[index]->Receive();
      if (!done) {
        break;
      }
      ++connections_;
    }
  }

  MinihttpdOptions options_;
  sim::Scheduler sched_;
  sim::CpuResource cpu_;
  profiler::Deployment dep_;
  StageProfiler& prof_;
  vm::Memory mem_;
  vm::Interpreter interp_;
  shm::FlowDetector detector_;
  shm::SectionCache section_cache_;
  sim::SimMutex queue_mutex_;
  sim::SimMutex alloc_mutex_;
  sim::SimMutex stats_mutex_;
  sim::Channel<uint8_t> items_;
  sim::Channel<Connection> accept_ch_;
  workload::WebTrace trace_;
  util::Rng rng_;
  std::unique_ptr<obs::live::Whodunitd> daemon_;
  // Connection-type names pre-interned against the daemon's symbol
  // table (set in the ctor when options.live).
  util::SymId conn_small_sym_ = 0;
  util::SymId conn_large_sym_ = 0;

  vm::Program push_prog_, pop_prog_, alloc_prog_, free_prog_, counter_prog_;
  std::vector<vm::CpuState> guest_cpus_;  // indexed by vm::ThreadId
  std::vector<ThreadProfile*> thread_profiles_;
  std::vector<std::unique_ptr<sim::Channel<uint8_t>>> client_done_;
  util::RobinHoodMap<uint64_t, Connection> in_flight_;
  uint64_t next_handle_ = 1;
  // Sampled connections currently queued; gates the pop emulation.
  uint64_t sampled_in_queue_ = 0;

  uint64_t bytes_served_ = 0;
  uint64_t requests_ = 0;
  uint64_t connections_ = 0;
  uint64_t connections_done_ = 0;
  uint64_t emulated_sections_ = 0;
  bool queue_flow_seen_ = false;
};

MinihttpdResult Server::Run(profiler::Profile* out_profile) {
  // Threads: 0 = listener, 1..workers = workers.
  thread_profiles_.push_back(&prof_.CreateThread("listener"));
  for (int w = 0; w < options_.workers; ++w) {
    thread_profiles_.push_back(&prof_.CreateThread("worker_" + std::to_string(w)));
  }
  guest_cpus_.resize(thread_profiles_.size());
  const bool open_loop =
      options_.arrivals.kind != workload::ArrivalKind::kClosed;
  if (!open_loop) {
    for (int c = 0; c < options_.clients; ++c) {
      client_done_.push_back(std::make_unique<sim::Channel<uint8_t>>(sched_));
    }
  }

  sim::Spawn(sched_, Listener());
  for (int w = 0; w < options_.workers; ++w) {
    sim::Spawn(sched_, Worker(w));
  }
  if (open_loop) {
    const auto clients = static_cast<uint64_t>(options_.clients);
    const uint64_t per_gen =
        std::max<uint64_t>(1, options_.arrivals.clients_per_generator);
    const auto gens = static_cast<int>((clients + per_gen - 1) / per_gen);
    // Minihttpd clients have no think time, so there is no natural
    // per-client rate; the 0 mean falls back to 1 conn/client/sec
    // unless --offered-load pins the aggregate.
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

  // Warmup snapshot, then measure to the end of the run.
  const sim::SimTime warmup = options_.duration / 5;
  uint64_t warm_bytes = 0;
  sched_.ScheduleAt(warmup, [&] { warm_bytes = bytes_served_; });
  sched_.RunUntil(options_.duration);

  // Drain: closing the channels releases every blocked coroutine.
  accept_ch_.Close();
  items_.Close();
  for (auto& ch : client_done_) {
    ch->Close();
  }
  sched_.Run();

  MinihttpdResult result;
  result.bytes_served = bytes_served_;
  result.requests = requests_;
  result.connections = connections_done_;
  const double window_s = sim::ToSeconds(options_.duration - warmup);
  result.throughput_mbps =
      static_cast<double>(bytes_served_ - warm_bytes) * 8.0 / 1e6 / window_s;
  result.flows_detected = detector_.flows_detected();
  result.queue_flow_detected = queue_flow_seen_;
  result.allocator_demoted = detector_.IsDemoted(alloc_mutex_.id());
  result.critical_sections_emulated = emulated_sections_;
  result.profile_text = prof_.RenderTransactionalProfile(0.005);

  // Origin (empty-label) CCT = the listener's own context.
  sim::SimTime origin = 0, total = prof_.total_cpu_time();
  for (const auto& [label, cct] : prof_.LabeledCcts()) {
    if (label.empty()) {
      origin += cct->TotalCpuTime();
    }
  }
  result.origin_cpu_ns = origin;
  result.total_cpu_ns = total;
  if (total > 0) {
    result.listener_context_share = 100.0 * static_cast<double>(origin) /
                                    static_cast<double>(total);
    result.worker_context_share = 100.0 - result.listener_context_share;
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

MinihttpdResult RunShardedMinihttpd(const MinihttpdOptions& options) {
  auto runs = RunShards(options, [&options](const MinihttpdOptions& shard_options, size_t shard,
                                            profiler::Profile* profile) {
    Server server(shard_options);
    server.SetShard(shard, static_cast<size_t>(options.shards));
    return server.Run(profile);
  });

  MinihttpdResult merged;
  profiler::Profile profile;
  std::ostringstream live_top, live_spans;
  for (size_t shard = 0; shard < runs.size(); ++shard) {
    const MinihttpdResult& r = runs[shard].result;
    merged.throughput_mbps += r.throughput_mbps;
    merged.requests += r.requests;
    merged.connections += r.connections;
    merged.bytes_served += r.bytes_served;
    merged.flows_detected += r.flows_detected;
    merged.queue_flow_detected = merged.queue_flow_detected || r.queue_flow_detected;
    merged.allocator_demoted = merged.allocator_demoted || r.allocator_demoted;
    merged.critical_sections_emulated += r.critical_sections_emulated;
    merged.origin_cpu_ns += r.origin_cpu_ns;
    merged.total_cpu_ns += r.total_cpu_ns;
    profile.Fold(runs[shard].profile);
    if (options.live) {
      live_top << "=== shard " << shard << " ===\n" << r.live_top_text;
      live_spans << "=== shard " << shard << " ===\n" << r.live_span_json;
    }
  }
  if (merged.total_cpu_ns > 0) {
    merged.listener_context_share = 100.0 * static_cast<double>(merged.origin_cpu_ns) /
                                    static_cast<double>(merged.total_cpu_ns);
    merged.worker_context_share = 100.0 - merged.listener_context_share;
  }
  merged.profile_text = profiler::Stitcher(profile).RenderStage("apache", 0.005, " (merged)");
  merged.live_top_text = live_top.str();
  merged.live_span_json = live_spans.str();
  return merged;
}

}  // namespace

MinihttpdResult RunMinihttpd(const MinihttpdOptions& options) {
  if (options.shards > 1) {
    return RunShardedMinihttpd(options);
  }
  Server server(options);
  return server.Run();
}

MysqlShmValidationResult RunMysqlShmValidation(int threads, int rounds, uint64_t seed) {
  // MySQL-like shared-memory traffic: every server thread both reads
  // and writes table rows under the table lock, and bumps a shared
  // counter. Per §8.1, the algorithm must find no transaction flow.
  sim::Scheduler sched;
  profiler::Deployment dep;
  StageProfiler::Options po;
  po.name = "mysqld";
  StageProfiler prof(dep, po);
  std::vector<ThreadProfile*> tps;
  for (int t = 0; t < threads; ++t) {
    tps.push_back(&prof.CreateThread("db_thread_" + std::to_string(t)));
  }

  shm::FlowDetector detector(
      [&](vm::ThreadId t) { return prof.CurrentCtxtId(*tps[t]); });
  vm::Memory mem;
  vm::Interpreter interp;
  sim::SimMutex table_lock(sched, "table_lock");
  sim::SimMutex counter_lock(sched, "counter_lock");
  vm::Program rd = shm::TableRead(table_lock.id());
  vm::Program wr = shm::TableWrite(table_lock.id());
  vm::Program cnt = shm::CounterIncrement(counter_lock.id());

  constexpr uint64_t kTableBase = 0xA000;
  constexpr uint64_t kCounter = 0x5000;
  util::Rng rng(seed);
  MysqlShmValidationResult result;
  std::vector<vm::CpuState> cpus(static_cast<size_t>(threads));
  for (int round = 0; round < rounds; ++round) {
    const auto t = static_cast<vm::ThreadId>(rng.NextBelow(static_cast<uint64_t>(threads)));
    vm::CpuState& cpu = cpus[t];
    const uint64_t row = rng.NextBelow(64);
    if (rng.NextBernoulli(0.5)) {
      cpu.regs[0] = kTableBase;
      cpu.regs[1] = row;
      if (detector.ShouldEmulate(table_lock.id())) {
        interp.ExecuteWith(rd, t, cpu, mem, &detector);
        ++result.critical_sections_run;
      }
    } else {
      cpu.regs[0] = kTableBase;
      cpu.regs[1] = row;
      cpu.regs[2] = rng.NextU64() | 1;
      if (detector.ShouldEmulate(table_lock.id())) {
        interp.ExecuteWith(wr, t, cpu, mem, &detector);
        ++result.critical_sections_run;
      }
    }
    cpu.regs[0] = kCounter;
    if (detector.ShouldEmulate(counter_lock.id())) {
      interp.ExecuteWith(cnt, t, cpu, mem, &detector);
      ++result.critical_sections_run;
    }
  }
  result.flows_detected = detector.flows_detected();
  result.table_lock_demoted = detector.IsDemoted(table_lock.id());
  return result;
}

}  // namespace whodunit::apps
