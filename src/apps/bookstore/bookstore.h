// Bookstore: the TPC-W rig (paper §8.4, §9.1; Tables 1-2, Figures
// 11-12).
//
// Three stages on separate simulated machines, as in the paper:
//   clients -> squid (proxy) -> tomcat (servlets) -> mysql (MiniDB)
//
// Each of the fourteen TPC-W interactions is a separate servlet, so
// each has a distinct call path through Tomcat and therefore extends a
// distinct transaction context into MySQL — which is how Whodunit
// separates MySQL's CPU and lock-wait time per interaction (Table 1).
//
// Two optimization knobs reproduce the paper's §8.4 tuning:
//   * item_granularity: MyISAM table locks vs InnoDB row locks for the
//     `item` table (Figure 11, AdminConfirm);
//   * servlet_caching: 30-second result caching of BestSellers /
//     SearchResult in the servlets (Figures 11-12).
#ifndef SRC_APPS_BOOKSTORE_BOOKSTORE_H_
#define SRC_APPS_BOOKSTORE_BOOKSTORE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "src/callpath/profiler_mode.h"
#include "src/db/database.h"
#include "src/sim/time.h"
#include "src/workload/arrivals.h"
#include "src/workload/calibration.h"
#include "src/workload/tpcw.h"

namespace whodunit::apps {

struct BookstoreOptions {
  callpath::ProfilerMode mode = callpath::ProfilerMode::kWhodunit;
  int clients = 100;
  bool servlet_caching = false;
  db::LockGranularity item_granularity = db::LockGranularity::kTableLocks;
  sim::SimTime duration = sim::Seconds(900);
  sim::SimTime warmup = sim::Seconds(120);
  uint64_t seed = 1;
  int proxy_workers = 24;
  int tomcat_workers = 24;
  int db_workers = 24;

  // Stage core counts. Defaults are the §8.4 calibration (one-socket
  // 2007 boxes), which keeps every existing result byte-identical; the
  // client-scaling bench raises them in proportion to offered load so
  // the variable under test is population size, not modeled hardware.
  int proxy_cores = workload::kProxyCores;
  int tomcat_cores = workload::kAppServerCores;
  int db_cores = workload::kDbCores;

  // ---- Open-loop arrivals (src/workload/arrivals.h) -------------------
  // kind == kClosed reproduces the seed behavior exactly: one
  // think-send-wait coroutine per client. kPoisson / kBursty switch to
  // open-loop generators (the --arrivals / --offered-load knobs): ~1
  // generator coroutine per 10k logical clients injects requests on an
  // arrival clock, and per-client memory goes flat — see
  // docs/PRODUCTION.md.
  workload::ArrivalConfig arrivals;

  // ---- Production sampling (docs/PRODUCTION.md) -----------------------
  // Fraction of top-level transactions that are profiled (the
  // --sample-rate knob). 1.0 profiles everything and is byte-identical
  // to the pre-sampling profiler; unsampled transactions pay only the
  // per-transaction coin flip.
  double sample_rate = 1.0;
  // Decision-stream seed; 0 derives it from `seed` (so sharded runs
  // sample independent per-shard subsets automatically).
  uint64_t sample_seed = 0;

  // ---- Shard-parallel execution (src/sim/parallel_runner.h) -----------
  // shards > 1 partitions the client population into `shards`
  // independent deployments (each with its own scheduler, context
  // tree, dictionaries, and seed = seed + shard index) and merges the
  // results in shard order. The partition is part of the workload
  // definition: for a fixed `shards`, the merged result is
  // byte-identical for any `threads` — which only sets the worker-pool
  // size (1 = run shards serially on the calling thread).
  int shards = 1;
  int threads = 1;

  // ---- Live observability (src/obs/live) ------------------------------
  // Attach a whodunitd aggregation daemon: stages publish transaction
  // lifecycle events to it and the result carries its final snapshot.
  bool live = false;
  // Completed transactions retained for Chrome-trace span export.
  size_t live_span_ring = 128;
  // Byte budget of the daemon's retention-bounded history store (the
  // --history-bytes knob; 0 disables it).
  size_t live_history_bytes = 1 << 20;
  // When set, a poller queries the daemon at this virtual-time period
  // and hands the rendered top table to the callback (whodunit_top's
  // refresh loop).
  sim::SimTime live_poll_interval = sim::Seconds(30);
  std::function<void(const std::string&)> on_live_top;
  // Critical-path wait-state attribution of every published
  // transaction (docs/OBSERVABILITY.md; the --no-attribution knob
  // turns it off for ablation).
  bool live_attribution = true;
  // Publish batching (the --publish-batch knob): completed
  // transactions accumulate in a publisher-side batch flushed to the
  // daemon when it reaches this size (or on the flush interval), so
  // the pump wakes once per batch instead of once per transaction.
  // End-of-run exports are byte-identical for any value ≥ 1.
  size_t live_publish_batch = 64;
};

struct BookstorePerType {
  uint64_t count = 0;                // completed in the measure window
  double mean_response_ms = 0;       // client-observed
  double db_cpu_percent = 0;         // share of MySQL CPU (from CCT labels)
  double db_cpu_percent_ground = 0;  // same, from direct accounting
  double mean_crosstalk_ms = 0;      // mean lock wait per DB query
  // Raw accumulators behind the percentages; shard merging sums these
  // and recomputes the ratios so merged rows are exact.
  uint64_t db_cpu_ns = 0;            // MySQL CPU from this type's CCT labels
  uint64_t db_cpu_ground_ns = 0;     // same, from direct accounting
};

struct BookstoreResult {
  double throughput_tpm = 0;  // interactions per minute in the window
  uint64_t interactions = 0;
  std::array<BookstorePerType, workload::kTpcwTransactionCount> per_type;

  // §9.1 communication accounting, all stages summed.
  uint64_t payload_bytes = 0;
  uint64_t context_bytes = 0;

  std::string db_profile_text;
  std::string crosstalk_text;
  std::string stitched_text;  // Figure 7-style end-to-end profile
  std::string stitched_dot;   // graphviz rendering of the same
  // The paper's §1 query, answered: which transaction types invoked
  // the database's sort routine.
  std::string who_causes_sort;

  // §8.1 inside the profiled run: the flow detector watches MySQL's
  // own shared-memory critical sections (row buffers under table
  // mutexes, a shared statistics counter). Must find no flows.
  uint64_t db_shm_flows = 0;
  bool db_shared_state_demoted = false;

  // Stage CPU utilizations over the whole run — the Figure 12
  // bottleneck story (DB saturates without caching; caching moves the
  // bottleneck to the app server).
  double db_utilization = 0;
  double tomcat_utilization = 0;
  double proxy_utilization = 0;

  // Final whodunitd snapshot (empty unless options.live): the rendered
  // top table, the query API's JSON form, and the Chrome trace JSON of
  // the retained transactions.
  std::string live_top_text;
  std::string live_query_json;
  std::string live_span_json;
  // Tail diagnosis (empty unless options.live): the rendered
  // --why-tail report and the whodunit-attr-v1 folded-stack export,
  // both taken after the daemon drained at end of run.
  std::string live_why_tail_text;
  std::string live_attr_folded;

  // DES engine accounting (summed over shards): total events the
  // scheduler executed and the calendar's high-water mark. The
  // client-scaling bench derives events/sec and per-client memory
  // curves from these.
  uint64_t sim_events = 0;
  uint64_t peak_event_queue_depth = 0;
};

// Runs the bookstore. With options.shards > 1 the run fans out over a
// sim::ParallelRunner: numeric results merge exactly (raw-sum fields),
// db_profile_text / crosstalk_text are the canonical cross-shard merge
// (profiler::Profile::Fold), stitched_text and the live snapshots are
// per-shard sections in shard order, and stitched_dot /
// who_causes_sort come from shard 0. on_live_top is ignored when
// sharded (the callback is not shard-safe).
BookstoreResult RunBookstore(const BookstoreOptions& options);

}  // namespace whodunit::apps

#endif  // SRC_APPS_BOOKSTORE_BOOKSTORE_H_
