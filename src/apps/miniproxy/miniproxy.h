// Miniproxy: the Squid stand-in (paper §8.2, §9.3, Figure 9).
//
// An event-driven web proxy cache built on the instrumented event
// library (src/events). Its handlers mirror Squid's: httpAccept
// accepts client connections, clientReadRequest parses a request and
// consults the cache, commConnectHandle opens a connection to the
// origin server on a miss, httpReadReply receives origin content, and
// commHandleWrite sends the response to the client.
//
// The experiment the paper highlights: commHandleWrite executes under
// TWO transaction contexts — one reached via the cache-hit handler
// sequence and one via the cache-miss sequence — a distinction no
// conventional profiler makes.
#ifndef SRC_APPS_MINIPROXY_MINIPROXY_H_
#define SRC_APPS_MINIPROXY_MINIPROXY_H_

#include <cstdint>
#include <string>

#include "src/callpath/profiler_mode.h"
#include "src/sim/time.h"
#include "src/workload/arrivals.h"

namespace whodunit::apps {

struct MiniproxyOptions {
  callpath::ProfilerMode mode = callpath::ProfilerMode::kWhodunit;
  int clients = 48;
  sim::SimTime duration = sim::Seconds(20);
  uint64_t seed = 1;

  // ---- Open-loop arrivals (src/workload/arrivals.h) -------------------
  // kind == kClosed reproduces the seed behavior exactly. Open-loop
  // kinds inject connections on an arrival clock via ~1 generator per
  // 10k logical clients; with offered_load_tps == 0 the aggregate rate
  // defaults to one connection per client per second.
  workload::ArrivalConfig arrivals;

  // ---- Production sampling (docs/PRODUCTION.md) -----------------------
  // Fraction of client connections that are profiled (the
  // --sample-rate knob). The decision is drawn when the accept event is
  // injected and rides on every event the connection spawns; unsampled
  // connections are dispatched with no context-tree work.
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

struct MiniproxyResult {
  double throughput_mbps = 0;
  uint64_t requests = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double hit_ratio = 0;

  // Figure 9's claim: the number of distinct transaction contexts the
  // write handler executed under (2: hit path and miss path).
  size_t write_handler_context_count = 0;
  double hit_path_share = 0;   // % of proxy CPU in the hit-path context
  double miss_path_share = 0;  // % in the miss-path context (incl. read)
  // Raw accumulators behind the shares; shard merging sums these and
  // recomputes the percentages so merged shares are exact.
  uint64_t hit_path_cpu_ns = 0;
  uint64_t miss_path_cpu_ns = 0;
  uint64_t total_cpu_ns = 0;

  std::string profile_text;
};

// Runs the proxy. With options.shards > 1 the run fans out over a
// sim::ParallelRunner: numeric results merge exactly (raw-sum fields;
// write_handler_context_count takes the per-shard max, since every
// shard sees the same hit/miss context pair) and profile_text is the
// canonical cross-shard merge (profiler::Profile::Fold).
MiniproxyResult RunMiniproxy(const MiniproxyOptions& options);

}  // namespace whodunit::apps

#endif  // SRC_APPS_MINIPROXY_MINIPROXY_H_
