// SEDA server: the Haboob stand-in (paper §8.3, §9.3, Figure 10).
//
// A staged event-driven web server on the instrumented SEDA middleware
// (src/seda) with Haboob's stage graph:
//
//   ListenStage -> HttpServer -> ReadStage -> HttpRecv -> CacheStage
//       CacheStage -(hit)-> WriteStage
//       CacheStage -(miss)-> MissStage -> FileIoStage -> WriteStage
//
// The reproduced claim: WriteStage executes under two transaction
// contexts (reached via the hit path and via the miss path), and
// Whodunit separates their CPU shares (the paper measures 37.65% vs
// 46.58% of total CPU).
#ifndef SRC_APPS_SEDASERVER_SEDASERVER_H_
#define SRC_APPS_SEDASERVER_SEDASERVER_H_

#include <cstdint>
#include <string>

#include "src/callpath/profiler_mode.h"
#include "src/sim/time.h"
#include "src/workload/arrivals.h"

namespace whodunit::apps {

struct SedaServerOptions {
  callpath::ProfilerMode mode = callpath::ProfilerMode::kWhodunit;
  int clients = 48;
  int workers_per_stage = 2;
  sim::SimTime duration = sim::Seconds(20);
  uint64_t seed = 1;

  // ---- Open-loop arrivals (src/workload/arrivals.h) -------------------
  // kind == kClosed reproduces the seed behavior exactly. Open-loop
  // kinds inject requests on an arrival clock via ~1 generator per
  // 10k logical clients; with offered_load_tps == 0 the aggregate rate
  // defaults to one request per client per second.
  workload::ArrivalConfig arrivals;
  // Attach a whodunitd live-observability daemon (src/obs/live): each
  // HTTP request becomes a live transaction with one span per SEDA
  // stage it passes through, re-typed cache_hit/cache_miss at the
  // cache stage.
  bool live = false;
  // Byte budget of the daemon's retention-bounded history store (the
  // --history-bytes knob; 0 disables it).
  size_t live_history_bytes = 1 << 20;

  // ---- Production sampling (docs/PRODUCTION.md) -----------------------
  // Fraction of HTTP requests that are profiled (the --sample-rate
  // knob). The decision is drawn once when a request is injected into
  // ListenStage and rides on every queue element it spawns; unsampled
  // requests cross the stage graph with no context-tree work.
  double sample_rate = 1.0;
  // Decision-stream seed; 0 derives it from `seed`.
  uint64_t sample_seed = 0;

  // Shard-parallel execution (src/sim/parallel_runner.h): shards > 1
  // partitions the client population into independent deployments
  // (seed = seed + shard index) merged in shard order. For a fixed
  // `shards`, the merged result is byte-identical for any `threads`.
  int shards = 1;
  int threads = 1;
};

struct SedaServerResult {
  double throughput_mbps = 0;
  uint64_t requests = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  // Figure 10: WriteStage's CPU share via the two paths.
  size_t write_stage_context_count = 0;
  double write_hit_share = 0;
  double write_miss_share = 0;
  // Raw accumulators behind the shares; shard merging sums these and
  // recomputes the percentages so merged shares are exact.
  uint64_t write_hit_cpu_ns = 0;
  uint64_t write_miss_cpu_ns = 0;
  uint64_t total_cpu_ns = 0;

  std::string profile_text;

  // Final whodunitd snapshot (empty unless options.live).
  std::string live_top_text;
  std::string live_span_json;
};

// Runs the SEDA server. With options.shards > 1 the run fans out over
// a sim::ParallelRunner: numeric results merge exactly (raw-sum
// fields; write_stage_context_count takes the per-shard max, since
// every shard sees the same hit/miss context pair), profile_text is
// the canonical cross-shard merge (profiler::Profile::Fold), and the
// live snapshots are per-shard sections in shard order.
SedaServerResult RunSedaServer(const SedaServerOptions& options);

}  // namespace whodunit::apps

#endif  // SRC_APPS_SEDASERVER_SEDASERVER_H_
