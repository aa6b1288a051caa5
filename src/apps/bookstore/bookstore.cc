#include "src/apps/bookstore/bookstore.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "src/apps/shards.h"
#include "src/crosstalk/crosstalk.h"
#include "src/profiler/profile.h"
#include "src/obs/live/daemon.h"
#include "src/profiler/deployment.h"
#include "src/profiler/stage_profiler.h"
#include "src/profiler/analysis.h"
#include "src/profiler/stitcher.h"
#include "src/sim/channel.h"
#include "src/sim/cpu.h"
#include "src/sim/scheduler.h"
#include "src/shm/flow_detector.h"
#include "src/shm/guest_code.h"
#include "src/shm/section_cache.h"
#include "src/sim/task.h"
#include "src/vm/interpreter.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/workload/calibration.h"

namespace whodunit::apps {
namespace {

using callpath::TracksTransactions;
using context::Synopsis;
using profiler::StageProfiler;
using profiler::ThreadProfile;
using workload::TpcwTransaction;

struct DbReply {
  Synopsis syn;
};
struct DbRequest {
  TpcwTransaction type;  // ground-truth accounting only
  db::Query query;
  uint64_t rows_touched = 0;
  Synopsis syn;
  uint64_t txn = 0;      // live-observability transaction id
  int64_t sent_ns = 0;   // send stamp; receiver derives queue wait
  sim::Channel<DbReply>* reply = nullptr;
};
struct TomcatReply {
  uint64_t body_bytes = 0;
  Synopsis syn;
};
struct TomcatRequest {
  TpcwTransaction type;
  uint32_t cache_key = 0;
  Synopsis syn;
  uint64_t txn = 0;      // live-observability transaction id
  int64_t sent_ns = 0;   // send stamp; receiver derives queue wait
  sim::Channel<TomcatReply>* reply = nullptr;
};
struct ProxyReply {
  uint64_t bytes = 0;
};
struct ProxyRequest {
  TpcwTransaction type;
  uint32_t cache_key = 0;
  sim::Channel<ProxyReply>* reply = nullptr;
};

constexpr uint64_t kRequestBytes = 600;
constexpr uint64_t kPageBytes = 8 * 1024;
constexpr uint64_t kImageBytes = 5 * 1024;

uint64_t RowsTouched(const db::Query& query) {
  uint64_t rows = 0;
  for (const auto& step : query.steps) {
    rows += step.rows_touched;
  }
  return rows;
}

StageProfiler::Options ProfOptions(std::string name, callpath::ProfilerMode mode) {
  StageProfiler::Options po;
  po.name = std::move(name);
  po.mode = mode;
  po.sample_period = workload::kSamplePeriod;
  po.costs.per_sample = workload::kPerSampleCost;
  po.costs.per_call = workload::kPerCallCost;
  po.costs.per_message_context = workload::kPerMessageContextCost;
  return po;
}

class Bookstore {
 public:
  explicit Bookstore(const BookstoreOptions& options)
      : options_(options),
        proxy_cpu_(sched_, options.proxy_cores, "squid_cpu"),
        tomcat_cpu_(sched_, options.tomcat_cores, "tomcat_cpu"),
        db_cpu_(sched_, options.db_cores, "mysql_cpu"),
        squid_(dep_.AddStage(
            std::make_unique<StageProfiler>(dep_, ProfOptions("squid", options.mode)))),
        tomcat_(dep_.AddStage(
            std::make_unique<StageProfiler>(dep_, ProfOptions("tomcat", options.mode)))),
        mysql_(dep_.AddStage(
            std::make_unique<StageProfiler>(dep_, ProfOptions("mysql", options.mode)))),
        database_(sched_, db_cpu_, db::CostModel{}),
        proxy_ch_(sched_, workload::kLanLatency),
        tomcat_ch_(sched_, workload::kLanLatency),
        db_ch_(sched_, workload::kLanLatency) {
    workload::CreateTpcwTables(database_, options.item_granularity);
    database_.SetLockObserver(&crosstalk_);
    dep_.sampling().Configure(profiler::SamplingConfig{
        options.sample_rate,
        options.sample_seed != 0 ? options.sample_seed : options.seed});
    if (options.live) {
      obs::live::LiveOptions lo;
      lo.span_ring = options.live_span_ring;
      lo.history_bytes = options.live_history_bytes;
      lo.attribution = options.live_attribution;
      daemon_ = std::make_unique<obs::live::Whodunitd>(sched_, lo);
      dep_.AttachLive(daemon_.get());
      // Intern the fourteen interaction names once at wiring time so
      // the per-request publish path is pure integer work.
      for (int t = 0; t < workload::kTpcwTransactionCount; ++t) {
        tpcw_syms_[static_cast<size_t>(t)] = daemon_->symbols().Intern(
            workload::TpcwName(static_cast<TpcwTransaction>(t)));
      }
      daemon_->set_crosstalk(&crosstalk_);
    }
    // §8.1: Whodunit also watches mysqld's own critical sections.
    shm_detector_ = std::make_unique<shm::FlowDetector>([this](vm::ThreadId t) {
      return mysql_.CurrentCtxtId(*mysql_tps_[t]);
    });
    table_read_prog_ = shm::TableRead(kDbBufferLockId);
    table_write_prog_ = shm::TableWrite(kDbBufferLockId);
    counter_prog_ = shm::CounterIncrement(kDbCounterLockId);
  }

  // Runs the simulation; when `out_profile` is set, also copies the
  // deployment's profile there (for the shard-parallel path).
  BookstoreResult Run(profiler::Profile* out_profile = nullptr);

  void SetShard(size_t index, size_t count) { dep_.set_shard(index, count); }

 private:
  sim::Process ProxyWorker(int index) {
    ThreadProfile& tp = *squid_tps_[static_cast<size_t>(index)];
    auto& reply_ch = *proxy_reply_[static_cast<size_t>(index)];
    const auto client_side_fn = squid_.RegisterFunction("client_side");
    const auto forward_fn = squid_.RegisterFunction("http_forward");
    for (;;) {
      auto req = co_await proxy_ch_.Receive();
      if (!req) {
        break;
      }
      squid_.ResetTransaction(tp);
      const uint64_t live_txn =
          squid_.LiveBegin(tp, tpcw_syms_[static_cast<size_t>(req->type)]);
      uint64_t bytes = 0;
      {
        auto f0 = squid_.EnterFrame(tp, client_side_fn);
        // Static images served from Squid's cache.
        co_await proxy_cpu_.Consume(squid_.ChargeCpu(
            tp, workload::kProxyForwardCost +
                    workload::kStaticImagesPerPage * workload::kProxyStaticHitCost));
        {
          auto f1 = squid_.EnterFrame(tp, forward_fn);
          TomcatRequest treq;
          treq.type = req->type;
          treq.cache_key = req->cache_key;
          treq.txn = live_txn;
          treq.reply = &reply_ch;
          treq.syn = squid_.PrepareSend(tp);
          squid_.AccountMessage(kRequestBytes, treq.syn.WireBytes());
          treq.sent_ns = sched_.now();
          tomcat_ch_.Send(std::move(treq));
          auto rep = co_await reply_ch.Receive();
          if (!rep) {
            break;
          }
          squid_.OnReceive(tp, rep->syn);
          squid_.AccountMessage(rep->body_bytes, rep->syn.WireBytes());
          bytes = rep->body_bytes +
                  workload::kStaticImagesPerPage * kImageBytes;
        }
      }
      squid_.LiveComplete(tp);
      req->reply->Send(ProxyReply{bytes});
    }
  }

  sim::Process TomcatWorker(int index) {
    ThreadProfile& tp = *tomcat_tps_[static_cast<size_t>(index)];
    auto& reply_ch = *tomcat_reply_[static_cast<size_t>(index)];
    for (;;) {
      auto req = co_await tomcat_ch_.Receive();
      if (!req) {
        break;
      }
      tomcat_.OnReceive(tp, req->syn);
      // Queue residency: time since the send stamp beyond the wire
      // latency is time the request sat waiting for a free worker.
      tomcat_.LiveJoin(tp, req->txn,
                       std::max<int64_t>(0, sched_.now() - req->sent_ns -
                                                workload::kLanLatency));
      {
        auto f0 = tomcat_.EnterFrame(tp, service_fn_);
        auto f1 = tomcat_.EnterFrame(tp, servlet_fns_[static_cast<size_t>(req->type)]);
        const bool cacheable = options_.servlet_caching && workload::IsCacheable(req->type);
        sim::SimTime& cache_expiry =
            result_cache_[static_cast<size_t>(req->type)][req->cache_key];
        const bool cache_hit = cacheable && cache_expiry > sched_.now();
        if (cache_hit) {
          co_await tomcat_cpu_.Consume(
              tomcat_.ChargeCpu(tp, workload::kServletCacheHitCost));
        } else {
          {
            auto f2 = tomcat_.EnterFrame(tp, db_rpc_fn_);
            DbRequest dreq;
            dreq.type = req->type;
            dreq.query = workload::TpcwQuery(req->type, *tomcat_rngs_[static_cast<size_t>(index)]);
            dreq.rows_touched = RowsTouched(dreq.query);
            dreq.txn = req->txn;
            dreq.reply = &reply_ch;
            dreq.syn = tomcat_.PrepareSend(tp);
            tomcat_.AccountMessage(kRequestBytes, dreq.syn.WireBytes());
            dreq.sent_ns = sched_.now();
            db_ch_.Send(std::move(dreq));
            auto drep = co_await reply_ch.Receive();
            if (!drep) {
              break;
            }
            tomcat_.OnReceive(tp, drep->syn);
            tomcat_.AccountMessage(2048, drep->syn.WireBytes());
          }
          if (cacheable) {
            cache_expiry = sched_.now() + workload::kResultCacheTtl;
          }
          tomcat_.NoteInternalCalls(tp, 12000);
          co_await tomcat_cpu_.Consume(tomcat_.ChargeCpu(tp, workload::kServletCost));
        }
      }
      TomcatReply rep;
      rep.body_bytes = kPageBytes;
      rep.syn = tomcat_.PrepareSend(tp, /*expect_response=*/false);
      tomcat_.AccountMessage(rep.body_bytes, rep.syn.WireBytes());
      tomcat_.LiveLeave(tp);
      req->reply->Send(std::move(rep));
    }
  }

  // MySQL-internal shared-memory traffic for one query: the server
  // thread touches row buffers (read or write, depending on the plan)
  // under the buffer mutex and bumps a shared statistics counter —
  // the access patterns §8.1 validates the algorithm against.
  sim::SimTime RunDbGuestOps(int worker, bool writes, uint64_t row) {
    // Unsampled transactions skip the flow detector entirely — no
    // produce-point snapshots, no emulation, no guest cycles.
    if (!TracksTransactions(options_.mode) ||
        !mysql_.IsSampled(*mysql_tps_[static_cast<size_t>(worker)])) {
      return 0;
    }
    const auto t = static_cast<vm::ThreadId>(worker);
    uint32_t& slot = guest_cpu_slot_[static_cast<size_t>(worker)];
    if (slot == 0) {
      guest_cpus_.emplace_back();
      slot = static_cast<uint32_t>(guest_cpus_.size());
    }
    vm::CpuState& cpu = guest_cpus_[slot - 1];
    int64_t cycles = 0;
    if (shm_detector_->ShouldEmulate(kDbBufferLockId)) {
      cpu.regs[0] = kDbTableBase;
      cpu.regs[1] = row % 64;
      cpu.regs[2] = row | 1;
      const vm::Program& prog = writes ? table_write_prog_ : table_read_prog_;
      cycles += section_cache_.Run(interp_, prog, t, cpu, guest_mem_, shm_detector_.get())
                    .guest_cycles;
    }
    if (shm_detector_->ShouldEmulate(kDbCounterLockId)) {
      cpu.regs[0] = kDbCounterAddr;
      cycles +=
          section_cache_.Run(interp_, counter_prog_, t, cpu, guest_mem_, shm_detector_.get())
              .guest_cycles;
    }
    return workload::CyclesToNs(cycles);
  }

  sim::Process DbWorker(int index) {
    ThreadProfile& tp = *mysql_tps_[static_cast<size_t>(index)];
    for (;;) {
      auto req = co_await db_ch_.Receive();
      if (!req) {
        break;
      }
      mysql_.OnReceive(tp, req->syn);
      mysql_.LiveJoin(tp, req->txn,
                      std::max<int64_t>(0, sched_.now() - req->sent_ns -
                                               workload::kLanLatency));
      {
        auto f0 = mysql_.EnterFrame(tp, do_command_fn_);
        auto f1 = mysql_.EnterFrame(tp, execute_fn_);
        // Row handlers, comparisons, copies, index probes: gprof pays
        // mcount for each of these internal calls.
        mysql_.NoteInternalCalls(tp, req->rows_touched * 5);
        const uint64_t tag = mysql_.CrosstalkTag(tp);
        if (daemon_ != nullptr && mysql_.IsSampled(tp)) {
          // Crosstalk tags resolve to TPC-W interaction names in the
          // daemon's live matrix.
          daemon_->NameTag(tag, workload::TpcwName(req->type));
        }
        // mysqld's own shared-memory critical sections run as part of
        // query processing (§8.1); their emulation cost rides on the
        // query's CPU charge rather than a separate scheduler pass.
        bool writes = false;
        uint64_t row = 0;
        for (const auto& step : req->query.steps) {
          if (step.kind == db::QueryStep::Kind::kUpdateRow) {
            writes = true;
            row = step.row;
          }
        }
        const sim::SimTime guest_cost = RunDbGuestOps(index, writes, row);
        // Per-step frames: sorts, scans etc. appear as their own
        // procedures in the CCT, so the §1 "who causes the sort?"
        // query has something to point at.
        const sim::SimTime raw = co_await database_.Execute(
            req->query, tag,
            [&](sim::SimTime c) { return mysql_.ChargeCpu(tp, c + guest_cost); },
            [&](const db::QueryStep& step, sim::SimTime c) {
              auto frame =
                  mysql_.EnterFrame(tp, step_fns_[static_cast<size_t>(step.kind)]);
              return mysql_.ChargeCpu(tp, c);
            },
            [&](sim::SimTime wait_ns) { mysql_.LiveLockWait(tp, wait_ns); });
        if (sched_.now() >= options_.warmup && sched_.now() <= options_.duration) {
          db_cpu_ground_[static_cast<size_t>(req->type)] += raw;
        }
      }
      DbReply rep;
      rep.syn = mysql_.PrepareSend(tp, /*expect_response=*/false);
      mysql_.AccountMessage(2048, rep.syn.WireBytes());
      mysql_.LiveLeave(tp);
      req->reply->Send(std::move(rep));
    }
  }

  // ---- Open-loop path (workload::ArrivalKind::kPoisson / kBursty) ----
  //
  // One generator coroutine stands in for ~10k logical clients: it
  // draws aggregate interarrival gaps and spawns one short-lived
  // request process per arrival. Reply channels are pooled (a freelist
  // of indices into client_reply_) and request frames recycle through
  // the arena, so a request allocates only while the number in flight
  // reaches a new peak (tests/alloc_law_test.cc bounds the cost).

  size_t AcquireReplyChannel() {
    if (!reply_free_.empty()) {
      const size_t idx = reply_free_.back();
      reply_free_.pop_back();
      return idx;
    }
    client_reply_.push_back(std::make_unique<sim::Channel<ProxyReply>>(
        sched_, workload::kLanLatency));
    return client_reply_.size() - 1;
  }

  sim::Process OpenLoopRequest(TpcwTransaction type, uint32_t cache_key) {
    const size_t ch_idx = AcquireReplyChannel();
    auto& reply_ch = *client_reply_[ch_idx];
    ProxyRequest req;
    req.type = type;
    req.cache_key = cache_key;
    req.reply = &reply_ch;
    const sim::SimTime start = sched_.now();
    proxy_ch_.Send(req);
    auto rep = co_await reply_ch.Receive();
    reply_free_.push_back(ch_idx);
    if (!rep) {
      co_return;  // drained at shutdown
    }
    const sim::SimTime end = sched_.now();
    if (start >= options_.warmup && end <= options_.duration) {
      ++interactions_;
      response_ms_[static_cast<size_t>(type)].Add(sim::ToMillis(end - start));
    }
  }

  sim::Process OpenLoopGenerator(double tps, uint64_t seed) {
    util::Rng base(seed);
    workload::ArrivalProcess arrivals(options_.arrivals, tps, base.NextU64());
    util::Rng mix(base.NextU64());
    for (;;) {
      co_await sim::Delay{sched_, arrivals.NextInterarrival()};
      if (sched_.now() >= options_.duration) {
        break;
      }
      const TpcwTransaction type = workload::SampleBrowsingMix(mix);
      const auto cache_key = static_cast<uint32_t>(
          mix.NextBelow(type == TpcwTransaction::kBestSellers ? 20 : kCacheKeys));
      sim::Spawn(sched_, OpenLoopRequest(type, cache_key));
    }
  }

  sim::Process Client(uint32_t index, uint64_t seed) {
    util::Rng rng(seed);
    auto& reply_ch = *client_reply_[index];
    for (;;) {
      co_await sim::Delay{
          sched_, static_cast<sim::SimTime>(rng.NextExponential(
                      static_cast<double>(workload::kTpcwThinkTimeMean)))};
      if (sched_.now() >= options_.duration) {
        break;
      }
      const TpcwTransaction type = workload::SampleBrowsingMix(rng);
      ProxyRequest req;
      req.type = type;
      req.cache_key = static_cast<uint32_t>(
          rng.NextBelow(type == TpcwTransaction::kBestSellers ? 20 : kCacheKeys));
      req.reply = &reply_ch;
      const sim::SimTime start = sched_.now();
      proxy_ch_.Send(req);
      auto rep = co_await reply_ch.Receive();
      if (!rep) {
        break;
      }
      const sim::SimTime end = sched_.now();
      if (start >= options_.warmup && end <= options_.duration) {
        ++interactions_;
        response_ms_[static_cast<size_t>(type)].Add(sim::ToMillis(end - start));
      }
    }
  }

  // whodunit_top's refresh loop: query + render + hand to the callback
  // at every poll interval while the workload runs.
  sim::Process LivePoller() {
    // Snapshot rows and the rendered string are members so every
    // refresh after the first reuses their capacity (no per-poll
    // allocation once row counts stabilize).
    for (;;) {
      co_await sim::Delay{sched_, options_.live_poll_interval};
      if (sched_.now() >= options_.duration) {
        break;
      }
      daemon_->Top(top_snap_);
      daemon_->RenderTop(top_snap_, top_text_);
      options_.on_live_top(top_text_);
    }
  }

  BookstoreOptions options_;
  sim::Scheduler sched_;
  sim::CpuResource proxy_cpu_;
  sim::CpuResource tomcat_cpu_;
  sim::CpuResource db_cpu_;
  profiler::Deployment dep_;
  StageProfiler& squid_;
  StageProfiler& tomcat_;
  StageProfiler& mysql_;
  db::Database database_;
  crosstalk::CrosstalkRecorder crosstalk_;
  std::unique_ptr<obs::live::Whodunitd> daemon_;
  // Interaction names pre-interned against the daemon's symbol table
  // (filled in the ctor when options.live); index by TpcwTransaction.
  std::array<util::SymId, workload::kTpcwTransactionCount> tpcw_syms_{};
  // LivePoller's reused snapshot + render buffer.
  obs::live::Whodunitd::TopSnapshot top_snap_;
  std::string top_text_;

  sim::Channel<ProxyRequest> proxy_ch_;
  sim::Channel<TomcatRequest> tomcat_ch_;
  sim::Channel<DbRequest> db_ch_;

  callpath::FunctionId service_fn_ = 0, db_rpc_fn_ = 0, do_command_fn_ = 0, execute_fn_ = 0;
  std::array<callpath::FunctionId, 5> step_fns_{};  // indexed by QueryStep::Kind
  std::vector<callpath::FunctionId> servlet_fns_;

  std::vector<ThreadProfile*> squid_tps_, tomcat_tps_, mysql_tps_;
  std::vector<std::unique_ptr<sim::Channel<TomcatReply>>> proxy_reply_;
  std::vector<std::unique_ptr<sim::Channel<DbReply>>> tomcat_reply_;
  std::vector<std::unique_ptr<sim::Channel<ProxyReply>>> client_reply_;
  std::vector<size_t> reply_free_;  // open-loop reply-channel pool
  std::vector<std::unique_ptr<util::Rng>> tomcat_rngs_;

  static constexpr uint64_t kDbBufferLockId = 0xDB0F;
  static constexpr uint64_t kDbCounterLockId = 0xDB0C;
  static constexpr uint64_t kDbTableBase = 0xA000;
  static constexpr uint64_t kDbCounterAddr = 0x5000;
  // Clients draw a servlet cache key below this (below 20 for
  // BestSellers).
  static constexpr uint32_t kCacheKeys = 40;
  std::unique_ptr<shm::FlowDetector> shm_detector_;
  vm::Interpreter interp_;
  shm::SectionCache section_cache_;
  vm::Memory guest_mem_;
  vm::Program table_read_prog_, table_write_prog_, counter_prog_;
  // DB workers' guest register files, in order of first guest section:
  // guest_cpu_slot_[worker] is 1 + the worker's index in guest_cpus_, or
  // 0 before its first one. Under sampling most of tpcw_open_sampled's
  // 6250 workers never run a guest section, and a register file per
  // worker would add 0.8 MB of peak RSS.
  std::vector<uint32_t> guest_cpu_slot_;
  std::vector<vm::CpuState> guest_cpus_;

  // Servlet result-cache expiry per (interaction, cache key); a slot
  // that was never filled reads 0, which is never after now.
  std::array<std::array<sim::SimTime, kCacheKeys>, workload::kTpcwTransactionCount>
      result_cache_{};
  std::array<util::SampleSet, workload::kTpcwTransactionCount> response_ms_;
  std::array<sim::SimTime, workload::kTpcwTransactionCount> db_cpu_ground_{};
  uint64_t interactions_ = 0;
};

BookstoreResult Bookstore::Run(profiler::Profile* out_profile) {
  service_fn_ = tomcat_.RegisterFunction("service");
  db_rpc_fn_ = tomcat_.RegisterFunction("jdbc_execute");
  do_command_fn_ = mysql_.RegisterFunction("do_command");
  execute_fn_ = mysql_.RegisterFunction("mysql_execute");
  step_fns_[static_cast<size_t>(db::QueryStep::Kind::kScan)] =
      mysql_.RegisterFunction("row_scan");
  step_fns_[static_cast<size_t>(db::QueryStep::Kind::kSort)] =
      mysql_.RegisterFunction("sort_records");
  step_fns_[static_cast<size_t>(db::QueryStep::Kind::kTempTable)] =
      mysql_.RegisterFunction("create_tmp_table");
  step_fns_[static_cast<size_t>(db::QueryStep::Kind::kPointRead)] =
      mysql_.RegisterFunction("index_read");
  step_fns_[static_cast<size_t>(db::QueryStep::Kind::kUpdateRow)] =
      mysql_.RegisterFunction("update_row");
  for (int t = 0; t < workload::kTpcwTransactionCount; ++t) {
    servlet_fns_.push_back(tomcat_.RegisterFunction(
        std::string("servlet_") + workload::TpcwName(static_cast<TpcwTransaction>(t))));
  }

  util::Rng seeder(options_.seed);
  for (int i = 0; i < options_.proxy_workers; ++i) {
    squid_tps_.push_back(&squid_.CreateThread("squid_w" + std::to_string(i)));
    proxy_reply_.push_back(std::make_unique<sim::Channel<TomcatReply>>(
        sched_, workload::kLanLatency));
  }
  for (int i = 0; i < options_.tomcat_workers; ++i) {
    tomcat_tps_.push_back(&tomcat_.CreateThread("tomcat_w" + std::to_string(i)));
    tomcat_reply_.push_back(
        std::make_unique<sim::Channel<DbReply>>(sched_, workload::kLanLatency));
    tomcat_rngs_.push_back(std::make_unique<util::Rng>(seeder.NextU64()));
  }
  for (int i = 0; i < options_.db_workers; ++i) {
    mysql_tps_.push_back(&mysql_.CreateThread("mysql_w" + std::to_string(i)));
  }
  guest_cpu_slot_.resize(mysql_tps_.size());
  const bool open_loop =
      options_.arrivals.kind != workload::ArrivalKind::kClosed;
  if (!open_loop) {
    for (int c = 0; c < options_.clients; ++c) {
      client_reply_.push_back(
          std::make_unique<sim::Channel<ProxyReply>>(sched_, workload::kLanLatency));
    }
  }

  for (int i = 0; i < options_.proxy_workers; ++i) {
    sim::Spawn(sched_, ProxyWorker(i));
  }
  for (int i = 0; i < options_.tomcat_workers; ++i) {
    sim::Spawn(sched_, TomcatWorker(i));
  }
  for (int i = 0; i < options_.db_workers; ++i) {
    sim::Spawn(sched_, DbWorker(i));
  }
  if (open_loop) {
    // Poisson superposition: N clients at rate r == one process at
    // rate N*r, so generators each carry an equal slice of the
    // aggregate. Seeds derive from a dedicated stream so the closed-
    // loop seeder draws stay untouched (and shard seeds keep the merge
    // thread-count-invariant).
    const auto clients = static_cast<uint64_t>(
        options_.clients < 0 ? 0 : options_.clients);
    const uint64_t per_gen =
        options_.arrivals.clients_per_generator > 0
            ? options_.arrivals.clients_per_generator
            : 10000;
    const uint64_t gens =
        clients == 0 ? 0 : (clients + per_gen - 1) / per_gen;
    const double tps = workload::EffectiveOfferedTps(
        options_.arrivals, clients, workload::kTpcwThinkTimeMean);
    util::Rng gen_seeder(options_.seed ^ 0x9E3779B97F4A7C15ULL);
    for (uint64_t g = 0; g < gens; ++g) {
      sim::Spawn(sched_, OpenLoopGenerator(tps / static_cast<double>(gens),
                                           gen_seeder.NextU64()));
    }
  } else {
    for (int c = 0; c < options_.clients; ++c) {
      sim::Spawn(sched_, Client(static_cast<uint32_t>(c), seeder.NextU64()));
    }
  }
  if (daemon_ != nullptr && options_.on_live_top) {
    sim::Spawn(sched_, LivePoller());
  }

  sched_.RunUntil(options_.duration);
  proxy_ch_.Close();
  tomcat_ch_.Close();
  db_ch_.Close();
  for (auto& ch : proxy_reply_) ch->Close();
  for (auto& ch : tomcat_reply_) ch->Close();
  for (auto& ch : client_reply_) ch->Close();
  sched_.Run();

  BookstoreResult result;
  result.interactions = interactions_;
  result.throughput_tpm =
      static_cast<double>(interactions_) /
      sim::ToSeconds(options_.duration - options_.warmup) * 60.0;

  // Per-type DB CPU shares derived from the mysql stage's CCT labels —
  // the Whodunit way: each label's description names the servlet whose
  // send created it.
  sim::SimTime label_total = 0;
  std::array<sim::SimTime, workload::kTpcwTransactionCount> label_cpu{};
  std::array<uint64_t, workload::kTpcwTransactionCount> type_tags{};
  std::array<bool, workload::kTpcwTransactionCount> tag_known{};
  for (const auto& [label, cct] : mysql_.LabeledCcts()) {
    const std::string desc = dep_.DescribeSynopsis(label);
    for (int t = 0; t < workload::kTpcwTransactionCount; ++t) {
      const std::string needle =
          std::string("servlet_") + workload::TpcwName(static_cast<TpcwTransaction>(t));
      if (desc.find(needle) != std::string::npos) {
        label_cpu[static_cast<size_t>(t)] += cct->TotalCpuTime();
        label_total += cct->TotalCpuTime();
        type_tags[static_cast<size_t>(t)] = mysql_.TagForLabel(label);
        tag_known[static_cast<size_t>(t)] = true;
        break;
      }
    }
  }
  sim::SimTime ground_total = 0;
  for (sim::SimTime t : db_cpu_ground_) {
    ground_total += t;
  }
  for (int t = 0; t < workload::kTpcwTransactionCount; ++t) {
    auto& row = result.per_type[static_cast<size_t>(t)];
    row.count = response_ms_[static_cast<size_t>(t)].count();
    row.mean_response_ms = response_ms_[static_cast<size_t>(t)].mean();
    if (label_total > 0) {
      row.db_cpu_percent = 100.0 * static_cast<double>(label_cpu[static_cast<size_t>(t)]) /
                           static_cast<double>(label_total);
    }
    if (ground_total > 0) {
      row.db_cpu_percent_ground =
          100.0 * static_cast<double>(db_cpu_ground_[static_cast<size_t>(t)]) /
          static_cast<double>(ground_total);
    }
    if (tag_known[static_cast<size_t>(t)]) {
      row.mean_crosstalk_ms =
          crosstalk_.MeanWaitAllAcquires(type_tags[static_cast<size_t>(t)]) / 1e6;
    }
    row.db_cpu_ns = static_cast<uint64_t>(label_cpu[static_cast<size_t>(t)]);
    row.db_cpu_ground_ns = static_cast<uint64_t>(db_cpu_ground_[static_cast<size_t>(t)]);
  }

  for (const auto& stage : dep_.stages()) {
    result.payload_bytes += stage->payload_bytes_sent();
    result.context_bytes += stage->context_bytes_sent();
  }
  result.db_shm_flows = shm_detector_ ? shm_detector_->flows_detected() : 0;
  result.db_shared_state_demoted =
      shm_detector_ != nullptr && shm_detector_->IsDemoted(kDbBufferLockId);
  result.db_utilization = db_cpu_.Utilization(options_.duration);
  result.tomcat_utilization = tomcat_cpu_.Utilization(options_.duration);
  result.proxy_utilization = proxy_cpu_.Utilization(options_.duration);
  profiler::Stitcher stitcher(dep_);
  result.db_profile_text = stitcher.RenderStage(mysql_.name(), 0.001);
  result.stitched_text = stitcher.Render(0.02);
  result.stitched_dot = stitcher.RenderDot();
  profiler::Analysis analysis(dep_);
  result.who_causes_sort = analysis.RenderWhoCauses(mysql_, "sort_records");
  const auto tag_namer = [&](uint64_t tag) {
    for (int t = 0; t < workload::kTpcwTransactionCount; ++t) {
      if (tag_known[static_cast<size_t>(t)] && type_tags[static_cast<size_t>(t)] == tag) {
        return std::string(workload::TpcwName(static_cast<TpcwTransaction>(t)));
      }
    }
    return std::string("tag_") + std::to_string(tag);
  };
  result.crosstalk_text = crosstalk_.Render(tag_namer);
  if (out_profile != nullptr) {
    *out_profile = profiler::Profile::Of(dep_);
    out_profile->crosstalk = crosstalk_;
    for (uint64_t tag : crosstalk_.Tags()) {
      out_profile->tag_names.emplace(tag, tag_namer(tag));
    }
  }
  if (daemon_ != nullptr) {
    // Close the publish channel (flushing the partial publish batch)
    // and drain, so every export below reflects every published event
    // — then snapshot.
    daemon_->Shutdown();
    sched_.Run();
    result.live_top_text = daemon_->RenderTop();
    result.live_query_json = daemon_->QueryJson();
    result.live_span_json = daemon_->ExportSpansJson();
    result.live_why_tail_text = daemon_->RenderWhyTail();
    result.live_attr_folded = daemon_->ExportAttrFolded();
  }
  result.sim_events = sched_.events_executed();
  result.peak_event_queue_depth = sched_.peak_queue_depth();
  return result;
}

BookstoreResult RunShardedBookstore(const BookstoreOptions& options) {
  auto runs = RunShards(options, [&options](BookstoreOptions shard_options, size_t shard,
                                            profiler::Profile* profile) {
    // An explicit offered load splits proportionally to the shard's
    // client share (a rate-0 config derives from clients anyway).
    if (options.arrivals.offered_load_tps > 0.0 && options.clients > 0) {
      shard_options.arrivals.offered_load_tps = options.arrivals.offered_load_tps *
                                                static_cast<double>(shard_options.clients) /
                                                static_cast<double>(options.clients);
    }
    shard_options.on_live_top = nullptr;
    Bookstore bookstore(shard_options);
    bookstore.SetShard(shard, static_cast<size_t>(options.shards));
    return bookstore.Run(profile);
  });

  // Canonical merge, shard order, on the calling thread.
  profiler::Profile merged;
  BookstoreResult out;
  std::ostringstream stitched, live_top, live_query, live_spans, live_why, live_attr;
  for (size_t i = 0; i < runs.size(); ++i) {
    const BookstoreResult& r = runs[i].result;
    merged.Fold(runs[i].profile);
    out.interactions += r.interactions;
    out.throughput_tpm += r.throughput_tpm;
    out.payload_bytes += r.payload_bytes;
    out.context_bytes += r.context_bytes;
    out.db_shm_flows += r.db_shm_flows;
    out.db_shared_state_demoted = out.db_shared_state_demoted || r.db_shared_state_demoted;
    out.db_utilization += r.db_utilization;
    out.tomcat_utilization += r.tomcat_utilization;
    out.proxy_utilization += r.proxy_utilization;
    out.sim_events += r.sim_events;
    out.peak_event_queue_depth += r.peak_event_queue_depth;
    for (int t = 0; t < workload::kTpcwTransactionCount; ++t) {
      auto& row = out.per_type[static_cast<size_t>(t)];
      const auto& shard_row = r.per_type[static_cast<size_t>(t)];
      row.mean_response_ms += shard_row.mean_response_ms * static_cast<double>(shard_row.count);
      row.count += shard_row.count;
      row.db_cpu_ns += shard_row.db_cpu_ns;
      row.db_cpu_ground_ns += shard_row.db_cpu_ground_ns;
    }
    stitched << "=== shard " << i << " ===\n" << r.stitched_text;
    if (options.live) {
      live_top << "=== shard " << i << " ===\n" << r.live_top_text;
      live_query << "=== shard " << i << " ===\n" << r.live_query_json << "\n";
      live_spans << "=== shard " << i << " ===\n" << r.live_span_json << "\n";
      live_why << "=== shard " << i << " ===\n" << r.live_why_tail_text;
      live_attr << "=== shard " << i << " ===\n" << r.live_attr_folded;
    }
  }
  // Shard machines are replicas, so merged utilization is their mean.
  out.db_utilization /= static_cast<double>(options.shards);
  out.tomcat_utilization /= static_cast<double>(options.shards);
  out.proxy_utilization /= static_cast<double>(options.shards);
  uint64_t label_total = 0;
  uint64_t ground_total = 0;
  for (const auto& row : out.per_type) {
    label_total += row.db_cpu_ns;
    ground_total += row.db_cpu_ground_ns;
  }
  for (int t = 0; t < workload::kTpcwTransactionCount; ++t) {
    auto& row = out.per_type[static_cast<size_t>(t)];
    if (row.count > 0) {
      row.mean_response_ms /= static_cast<double>(row.count);
    }
    if (label_total > 0) {
      row.db_cpu_percent =
          100.0 * static_cast<double>(row.db_cpu_ns) / static_cast<double>(label_total);
    }
    if (ground_total > 0) {
      row.db_cpu_percent_ground = 100.0 * static_cast<double>(row.db_cpu_ground_ns) /
                                  static_cast<double>(ground_total);
    }
    const uint64_t tag = merged.Tag(workload::TpcwName(static_cast<TpcwTransaction>(t)));
    if (tag != profiler::Profile::kNoTag) {
      row.mean_crosstalk_ms = merged.crosstalk.MeanWaitAllAcquires(tag) / 1e6;
    }
  }
  out.db_profile_text = profiler::Stitcher(merged).RenderStage("mysql", 0.001, " (merged)");
  out.crosstalk_text = merged.RenderCrosstalk();
  out.stitched_text = stitched.str();
  out.stitched_dot = runs.front().result.stitched_dot;
  out.who_causes_sort = runs.front().result.who_causes_sort;
  if (options.live) {
    out.live_top_text = live_top.str();
    out.live_query_json = live_query.str();
    out.live_span_json = live_spans.str();
    out.live_why_tail_text = live_why.str();
    out.live_attr_folded = live_attr.str();
  }
  return out;
}

}  // namespace

BookstoreResult RunBookstore(const BookstoreOptions& options) {
  if (options.shards > 1) {
    return RunShardedBookstore(options);
  }
  Bookstore bookstore(options);
  return bookstore.Run();
}

}  // namespace whodunit::apps
