// Minihttpd: the Apache 2.x stand-in (paper §8.1, §9.2, Figure 8).
//
// A multithreaded web server with Apache's worker-pool architecture:
// one listener thread accepts connections and pushes them into a
// mutex-protected shared queue (`ap_queue_push`); worker threads pop
// (`ap_queue_pop`) and process the connection. The queue's critical
// sections are MiniVM guest code executed under the shared-memory flow
// detector — the paper's central validation case. The server also runs
// a pooled memory allocator and a shared statistics counter through
// the same machinery, exercising the §3.4 false-positive cases.
//
// The workload models the Rice CS trace as used in §9.2: concurrent
// clients that open a connection, issue a few requests, close, and
// reconnect — so transaction flow through the queue recurs constantly.
#ifndef SRC_APPS_MINIHTTPD_MINIHTTPD_H_
#define SRC_APPS_MINIHTTPD_MINIHTTPD_H_

#include <cstdint>
#include <string>

#include "src/callpath/profiler_mode.h"
#include "src/sim/time.h"
#include "src/workload/arrivals.h"

namespace whodunit::apps {

struct MinihttpdOptions {
  callpath::ProfilerMode mode = callpath::ProfilerMode::kWhodunit;
  int workers = 8;
  int clients = 64;
  sim::SimTime duration = sim::Seconds(20);
  uint64_t seed = 1;
  // §9.2: with all-persistent connections no new work flows through
  // the shared queue, so Whodunit has (almost) nothing to emulate.
  // Each client then opens exactly one connection for the whole run;
  // use workers >= clients in this mode.
  bool persistent_connections = false;
  // ---- Open-loop arrivals (src/workload/arrivals.h) -------------------
  // kind == kClosed reproduces the seed behavior exactly (one
  // back-to-back coroutine per client). Open-loop kinds inject
  // connections on an arrival clock via ~1 generator per 10k logical
  // clients; with offered_load_tps == 0 the aggregate rate defaults to
  // one connection per client per second. Ignores
  // persistent_connections (open loop models connection churn).
  workload::ArrivalConfig arrivals;
  // Attach a whodunitd live-observability daemon (src/obs/live): each
  // connection becomes a live transaction from accept to completion.
  bool live = false;
  // Byte budget of the daemon's retention-bounded history store (the
  // --history-bytes knob; 0 disables it).
  size_t live_history_bytes = 1 << 20;

  // ---- Production sampling (docs/PRODUCTION.md) -----------------------
  // Fraction of connections that are profiled (the --sample-rate
  // knob). The listener's coin flip rides to the workers on the
  // connection record, so the queue pop is emulated only while a
  // sampled connection may be in the queue.
  double sample_rate = 1.0;
  // Decision-stream seed; 0 derives it from `seed`.
  uint64_t sample_seed = 0;

  // Shard-parallel execution (src/sim/parallel_runner.h): shards > 1
  // partitions the client population into independent deployments
  // (each with its own scheduler and seed = seed + shard index, and a
  // full worker pool) merged in shard order. For a fixed `shards`, the
  // merged result is byte-identical for any `threads`.
  int shards = 1;
  int threads = 1;
};

struct MinihttpdResult {
  double throughput_mbps = 0;  // measured after warmup
  uint64_t requests = 0;
  uint64_t connections = 0;
  uint64_t bytes_served = 0;

  // Flow-detection outcomes (only meaningful under kWhodunit).
  uint64_t flows_detected = 0;
  bool queue_flow_detected = false;
  bool allocator_demoted = false;
  uint64_t critical_sections_emulated = 0;

  // Profile shares (Figure 8): CPU fraction in the listener's own
  // (origin) context vs in worker contexts adopted via the queue.
  double listener_context_share = 0;
  double worker_context_share = 0;
  // Raw accumulators behind the shares; shard merging sums these and
  // recomputes the percentages so merged shares are exact.
  uint64_t origin_cpu_ns = 0;
  uint64_t total_cpu_ns = 0;

  std::string profile_text;

  // Final whodunitd snapshot (empty unless options.live).
  std::string live_top_text;
  std::string live_span_json;
};

// Runs minihttpd. With options.shards > 1 the run fans out over a
// sim::ParallelRunner: numeric results merge exactly (raw-sum fields,
// flags OR-ed), profile_text is the canonical cross-shard merge
// (profiler::Profile::Fold), and the live snapshots are per-shard
// sections in shard order.
MinihttpdResult RunMinihttpd(const MinihttpdOptions& options);

// §8.1's negative result: MySQL-style shared-memory traffic (table
// reads/writes and a shared counter under locks) must produce no
// transaction flow.
struct MysqlShmValidationResult {
  uint64_t flows_detected = 0;
  bool table_lock_demoted = false;
  uint64_t critical_sections_run = 0;
};
MysqlShmValidationResult RunMysqlShmValidation(int threads = 4, int rounds = 200,
                                               uint64_t seed = 42);

}  // namespace whodunit::apps

#endif  // SRC_APPS_MINIHTTPD_MINIHTTPD_H_
