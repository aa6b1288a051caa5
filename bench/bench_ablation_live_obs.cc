// Ablation: live-observability publish path on vs off, and the
// critical-path attribution pass on vs off.
//
// The whodunitd daemon (src/obs/live, docs/OBSERVABILITY.md) rides the
// profiler's hot paths: every ChargeCpu accumulates into a per-thread
// cost batch, every PrepareSend notes the outgoing synopsis part, and
// each transaction opens/joins/completes spans in the builder table.
// The design claim is that an always-on collector must cost less than
// the emulation hot path it observes; this bench measures that three
// ways:
//
//   1. Wall arms: the identical TPC-W rig with the daemon detached,
//      attached with attribution off, and attached with attribution on
//      — the end-to-end overhead an operator sees
//      (derived.live_publish_overhead_pct, <24.5% gate — half the
//      PR 9 delta; the tight <15%-of-baseline gate rides on the
//      direct pipeline measurement, derived.live_publish_pct_of_base,
//      because wall-arm deltas on a 1-core container carry several
//      points of scheduling noise).
//   2. Direct pipeline: a tight loop drives a real Whodunitd end to
//      end — publish hooks, batch flush, channel hop, pump,
//      attribution, aggregation, history — and reports ns per
//      transaction (derived.publish_ns_per_txn, <=800ns gate).
//   3. Steady-state allocations: this TU overrides global operator
//      new/delete with a counting hook; after warmup the direct
//      pipeline loop must not allocate at all — interned SymIds,
//      pooled PooledVec blocks, and recycled batches make the
//      publish->pump->aggregate path heap-silent
//      (derived.steady_allocs, ==0 hard gate).
//
// Each arm runs inside its own sim::ShardEnv scope, so its live.*
// counters land in a throwaway registry instead of accumulating across
// arms and rounds in this process's global dump — the final metrics
// snapshot only carries the bench.* gauges (docs/METRICS.md "Live
// pipeline counters" explains the per-run invariants).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/bookstore/bookstore.h"
#include "src/obs/live/aggregator.h"
#include "src/obs/live/attribution.h"
#include "src/obs/live/daemon.h"
#include "src/util/symbol_table.h"
#include "src/obs/metrics.h"
#include "src/sim/parallel_runner.h"
#include "src/sim/scheduler.h"

// ---- Heap allocation counter ----------------------------------------
// Counts every global operator new in the binary. The steady-state
// window of the direct pipeline measurement snapshots the counter
// before and after; a nonzero delta means the publish path still
// touches the allocator after warmup.
namespace {
std::atomic<uint64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t n) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}

void* CountedAlignedAlloc(std::size_t n, std::size_t align) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) {
    align = sizeof(void*);
  }
  void* p = nullptr;
  if (posix_memalign(&p, align, n ? n : align) != 0) {
    return nullptr;
  }
  return p;
}

uint64_t HeapAllocs() { return g_heap_allocs.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  void* p = CountedAlignedAlloc(n, static_cast<std::size_t>(a));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  void* p = CountedAlignedAlloc(n, static_cast<std::size_t>(a));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

double RunOnce(bool live, bool attribution, whodunit::apps::BookstoreResult* out) {
  // A fresh shard env per arm: private metrics registry (the arm's
  // live.* counters never pollute the process dump), context tree, and
  // symbol table, so arms cannot leak state into each other.
  whodunit::sim::ShardEnv env;
  whodunit::sim::ShardEnv::Scope scope(env);
  whodunit::apps::BookstoreOptions options;
  options.clients = 100;
  // Long arms on purpose: the wall-overhead headline is a difference
  // of arm times, and a ~30 ms arm (300 sim-seconds) leaves the delta
  // inside this container's scheduling jitter. A ~200 ms arm keeps the
  // delta several times the noise floor at a few seconds per run.
  options.duration = whodunit::sim::Seconds(1800);
  options.warmup = whodunit::sim::Seconds(30);
  options.live = live;
  options.live_attribution = attribution;
  const auto t0 = std::chrono::steady_clock::now();
  *out = whodunit::apps::RunBookstore(options);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// Span DAGs shaped like the bookstore's interactions: a proxy origin,
// an app-server hop, zero to two DB spans with queue/service/lock
// components. {stage, start, dur, parent, link, queue, service, lock}.
std::vector<whodunit::obs::live::TxnEvent> RepresentativeEvents() {
  using whodunit::util::Syms;
  using whodunit::obs::live::TxnEvent;
  const auto S = [](std::string_view name) { return Syms().Intern(name); };
  std::vector<TxnEvent> events;
  {
    TxnEvent ev;  // cache hit: two tiers, no DB
    ev.type = S("Home");
    ev.end_ns = 2'000'000;
    ev.spans.push_back({S("squid"), 0, 2'000'000, -1, 0, 0, 300'000, 0});
    ev.spans.push_back({S("tomcat"), 400'000, 1'200'000, 0, 1, 150'000, 800'000, 0});
    events.push_back(std::move(ev));
  }
  {
    TxnEvent ev;  // read: three tiers
    ev.type = S("ProductDetail");
    ev.end_ns = 6'000'000;
    ev.spans.push_back({S("squid"), 0, 6'000'000, -1, 0, 0, 400'000, 0});
    ev.spans.push_back({S("tomcat"), 500'000, 5'000'000, 0, 1, 200'000, 1'000'000, 0});
    ev.spans.push_back({S("mysql"), 1'500'000, 3'000'000, 1, 2, 100'000, 900'000, 400'000});
    events.push_back(std::move(ev));
  }
  {
    TxnEvent ev;  // write: three tiers, two DB visits, lock-heavy
    ev.type = S("BuyConfirm");
    ev.end_ns = 12'000'000;
    ev.spans.push_back({S("squid"), 0, 12'000'000, -1, 0, 0, 500'000, 0});
    ev.spans.push_back({S("tomcat"), 600'000, 10'500'000, 0, 1, 250'000, 1'500'000, 0});
    ev.spans.push_back({S("mysql"), 1'800'000, 4'000'000, 1, 2, 120'000, 700'000, 2'500'000});
    ev.spans.push_back({S("mysql"), 7'000'000, 3'500'000, 1, 3, 90'000, 600'000, 1'800'000});
    events.push_back(std::move(ev));
  }
  return events;
}

// ns per event of one pass over `events`, minimum of `rounds` timed
// loops of `iters` passes each.
template <typename Fn>
double TimedNsPerEvent(int rounds, int iters, size_t events_per_pass, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      fn();
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        (static_cast<double>(iters) * static_cast<double>(events_per_pass));
    best = ns < best ? ns : best;
  }
  return best;
}

// The marginal per-transaction cost of attribution on the daemon's
// ingest path: attribute + fold + the attr-fattened history copy,
// minus ingest + copy without attribution.
double MeasureAttrNsPerTxn() {
  using namespace whodunit::obs::live;
  using whodunit::util::SymbolTable;
  using whodunit::util::Syms;
  whodunit::sim::ShardEnv env;
  whodunit::sim::ShardEnv::Scope scope(env);
  const std::vector<TxnEvent> events = RepresentativeEvents();
  const SymbolTable& syms = Syms();
  AttrScratch scratch;
  constexpr int kRounds = 7;
  constexpr int kIters = 20000;

  LiveAggregator with_agg;
  int64_t sink = 0;
  const double with_ns = TimedNsPerEvent(kRounds, kIters, events.size(), [&] {
    for (const TxnEvent& ev : events) {
      TxnEvent copy = ev;  // the channel hand-off copy
      AttributeTxn(copy, syms, scratch, copy.attr);
      with_agg.Ingest(copy);
      sink += static_cast<int64_t>(copy.attr.size());
    }
  });

  LiveAggregator without_agg;
  const double without_ns = TimedNsPerEvent(kRounds, kIters, events.size(), [&] {
    for (const TxnEvent& ev : events) {
      TxnEvent copy = ev;
      without_agg.Ingest(copy);
      sink += static_cast<int64_t>(copy.spans.size());
    }
  });

  if (sink == 42) {
    std::printf("(unreachable)\n");
  }
  const double delta = with_ns - without_ns;
  return delta > 0 ? delta : 0;
}

// The full publish pipeline, measured directly: a loop drives a real
// Whodunitd — BeginTxn/SetTxnType/JoinSpan/AddSpanWait/EndSpan/
// CompleteTxn, the batch flush, the channel hop, the pump's
// attribution + aggregation + history ingest — under the default
// LiveOptions (attribution on, 1 MiB history; batches of kPublishBatch).
// Virtual time advances 10 ms per transaction so the history store
// crosses its 30 s flush interval many times and reaches retention
// steady state during warmup. Reports the fastest of three timed
// steady windows (noise only adds time) and the heap-allocation count
// summed across all of them (which must be zero).
struct PipelineCost {
  double ns_per_txn = 0;
  uint64_t steady_allocs = 0;
  uint64_t steady_txns = 0;
};

PipelineCost MeasurePublishPipeline() {
  using namespace whodunit::obs::live;
  using whodunit::util::SymbolTable;
  using whodunit::util::SymId;
  whodunit::sim::ShardEnv env;
  whodunit::sim::ShardEnv::Scope scope(env);
  whodunit::sim::Scheduler sched;
  Whodunitd daemon(sched, LiveOptions{});
  SymbolTable& syms = daemon.symbols();
  const SymId squid = syms.Intern("squid");
  const SymId tomcat = syms.Intern("tomcat");
  const SymId mysql = syms.Intern("mysql");
  const SymId types[3] = {syms.Intern("Home"), syms.Intern("ProductDetail"),
                          syms.Intern("BuyConfirm")};

  int64_t t = 0;
  const auto one_txn = [&](int shape) {
    t += 10'000'000;  // 10 ms of virtual time per transaction
    sched.RunUntil(t);  // deliver previously flushed batches to the pump
    const int64_t now = sched.now();
    const uint64_t txn = daemon.BeginTxn(squid, now);
    daemon.SetTxnType(txn, types[static_cast<size_t>(shape)]);
    daemon.AddSpanWait(txn, squid, WaitState::kService, 300);
    daemon.NoteSend(txn, squid, 1);
    daemon.JoinSpan(txn, tomcat, 1, now + 400, /*queue_ns=*/150);
    daemon.AddSpanWait(txn, tomcat, WaitState::kService, 800);
    if (shape > 0) {  // three-tier shapes visit the DB
      daemon.NoteSend(txn, tomcat, 2);
      daemon.JoinSpan(txn, mysql, 2, now + 1500, /*queue_ns=*/100);
      daemon.AddSpanWait(txn, mysql, WaitState::kService, 900);
      daemon.AddSpanWait(txn, mysql, WaitState::kLockWait, 400);
      daemon.EndSpan(txn, mysql, now + 4500);
    }
    daemon.EndSpan(txn, tomcat, now + 5400);
    daemon.CompleteTxn(txn, now + 6000);
  };

  // Warmup: fill the history store to its byte budget, cross several
  // retention flushes, and let every pooled freelist / hash table /
  // ring reach its steady capacity.
  constexpr int kWarmup = 30000;
  constexpr int kSteady = 20000;
  constexpr int kWindows = 3;
  for (int i = 0; i < kWarmup; ++i) {
    one_txn(i % 3);
  }
  sched.RunUntil(t);

  // Three timed windows, keeping the fastest: a machine-speed epoch
  // can slow one window, but noise only adds time. Allocations are
  // summed across ALL windows — zero must hold everywhere, not just
  // in the lucky one.
  PipelineCost cost;
  cost.ns_per_txn = 1e300;
  for (int w = 0; w < kWindows; ++w) {
    const uint64_t allocs_before = HeapAllocs();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kSteady; ++i) {
      one_txn(i % 3);
    }
    t += 1;
    sched.RunUntil(t);  // deliver the last flushed batch
    const auto t1 = std::chrono::steady_clock::now();
    const uint64_t allocs_after = HeapAllocs();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(kSteady);
    cost.ns_per_txn = ns < cost.ns_per_txn ? ns : cost.ns_per_txn;
    cost.steady_allocs += allocs_after - allocs_before;
    cost.steady_txns += kSteady;
  }
  return cost;
}

}  // namespace

int main() {
  using namespace whodunit;
  bench::Header("Ablation: live observability publish path (TPC-W, 1800s sim)");

  apps::BookstoreResult off_result, live_result, attr_result;
  // Interleave the arms so machine drift hits all three equally. The
  // arms are short (~30 ms), so the machine can change speed *between*
  // rounds; comparing min(live) against min(off) across rounds then
  // charges an epoch shift to the daemon. Within one round the arms
  // are adjacent in time and drift cancels, so the overhead estimate
  // is the MEDIAN of the per-round (live - off) / off ratios; the
  // per-arm minima are kept only for display.
  constexpr int kWallRounds = 5;
  double off_ms = 1e300, live_ms = 1e300, attr_ms = 1e300;
  std::vector<double> round_pct, round_delta_ms;
  for (int round = 0; round < kWallRounds; ++round) {
    const double off = RunOnce(/*live=*/false, /*attribution=*/false, &off_result);
    const double live = RunOnce(/*live=*/true, /*attribution=*/false, &live_result);
    const double attr = RunOnce(/*live=*/true, /*attribution=*/true, &attr_result);
    off_ms = off < off_ms ? off : off_ms;
    live_ms = live < live_ms ? live : live_ms;
    attr_ms = attr < attr_ms ? attr : attr_ms;
    round_pct.push_back(100.0 * (live - off) / off);
    round_delta_ms.push_back(live - off);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };

  const double attr_ns_per_txn = MeasureAttrNsPerTxn();
  const PipelineCost pipeline = MeasurePublishPipeline();

  const auto txns = static_cast<double>(live_result.interactions);
  const double base_ns_per_txn = txns > 0 ? 1e6 * off_ms / txns : 0.0;
  const double overhead_pct = median(round_pct);
  const double delta_ms = median(round_delta_ms);
  const double per_txn_us = txns > 0 ? 1000.0 * delta_ms / txns : 0.0;
  const double attr_pct =
      base_ns_per_txn > 0 ? 100.0 * attr_ns_per_txn / base_ns_per_txn : 0.0;

  std::printf("daemon off:            %10.1f ms wall\n", off_ms);
  std::printf("daemon on, attr off:   %10.1f ms wall\n", live_ms);
  std::printf("daemon on, attr on:    %10.1f ms wall\n", attr_ms);
  std::printf("publish-path overhead: %+9.1f%%  (%.1f us per transaction)\n",
              overhead_pct, per_txn_us);
  std::printf("attribution cost:      %10.0f ns per transaction (direct), %.1f%% of baseline\n",
              attr_ns_per_txn, attr_pct);
  std::printf("full publish pipeline: %10.0f ns per transaction "
              "(hooks + batch + pump + attr + aggregate, target <= 800)\n",
              pipeline.ns_per_txn);
  std::printf("steady-state allocs:   %10llu in %llu txns (target 0)\n",
              static_cast<unsigned long long>(pipeline.steady_allocs),
              static_cast<unsigned long long>(pipeline.steady_txns));
  std::printf("interactions:          %10lu (live arm)\n",
              static_cast<unsigned long>(live_result.interactions));
  std::printf("live table rendered:   %s\n",
              live_result.live_top_text.empty() ? "NO (BUG)" : "yes");
  std::printf("why-tail rendered:     %s\n",
              attr_result.live_why_tail_text.empty() ? "NO (BUG)" : "yes");

  // The simulated result must be identical in all three arms: the
  // daemon observes the run, it must not perturb it — and the
  // attribution pass runs entirely inside the daemon.
  const bool identical =
      off_result.interactions == live_result.interactions &&
      off_result.throughput_tpm == live_result.throughput_tpm &&
      off_result.interactions == attr_result.interactions &&
      off_result.throughput_tpm == attr_result.throughput_tpm;
  std::printf("sim results identical: %s\n", identical ? "yes" : "NO (BUG)");

  // Per-transaction costs in ns for run_benches.sh's derived block and
  // the check_perf.sh gates: publish_ns_per_txn <= 800 (direct),
  // live_publish_overhead_pct < 15 (wall), attr_publish_overhead_pct
  // < 15 (direct over wall baseline), steady_allocs == 0 (hard).
  auto& gauges = obs::Registry();
  if (txns > 0) {
    gauges.GetGauge("bench.ablation_live_obs.base_ns_per_txn")
        .Set(static_cast<int64_t>(base_ns_per_txn));
    gauges.GetGauge("bench.ablation_live_obs.wall_delta_ns_per_txn")
        .Set(static_cast<int64_t>(1e6 * delta_ms / txns));
    gauges.GetGauge("bench.ablation_live_obs.live_overhead_pct_x100")
        .Set(static_cast<int64_t>(100.0 * overhead_pct));
    gauges.GetGauge("bench.ablation_live_obs.attr_publish_ns_per_txn")
        .Set(static_cast<int64_t>(attr_ns_per_txn));
  }
  gauges.GetGauge("bench.ablation_live_obs.publish_ns_per_txn")
      .Set(static_cast<int64_t>(pipeline.ns_per_txn));
  gauges.GetGauge("bench.ablation_live_obs.steady_allocs")
      .Set(static_cast<int64_t>(pipeline.steady_allocs));

  whodunit::bench::DumpMetrics("ablation_live_obs");
  return identical ? 0 : 1;
}
