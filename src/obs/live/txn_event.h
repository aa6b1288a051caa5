// Live transaction observability: the event a stage publishes when a
// transaction it originated completes.
//
// A TxnEvent is the streaming counterpart of the post-mortem stitched
// profile (src/profiler/stitcher): one completed end-to-end
// transaction with its per-stage timeline. Stages assemble the event
// incrementally through the Whodunitd publish hooks (daemon.h) and
// finished events cross to the aggregation daemon in batches over a
// sim::Channel — the same conduit type every other inter-stage
// message uses, so publication is part of the simulated run rather
// than an out-of-band peek.
//
// The representation is built for a zero-allocation steady state:
// stage and type names are 32-bit SymIds into the shard's SymbolTable
// (symbol_table.h) — strings resolve only at render/export time — and
// the span/attribution blocks are arena-backed PooledVecs recycled
// through the thread's ArenaPool freelists (util/pooled_vec.h).
#ifndef SRC_OBS_LIVE_TXN_EVENT_H_
#define SRC_OBS_LIVE_TXN_EVENT_H_

#include <cstdint>

#include "src/context/context_tree.h"
#include "src/util/symbol_table.h"
#include "src/util/pooled_vec.h"

namespace whodunit::obs::live {

// Wait-state taxonomy (docs/OBSERVABILITY.md): every nanosecond of a
// transaction's end-to-end latency is attributed to exactly one of
// these states along its critical path.
enum class WaitState : uint8_t {
  kQueueWait = 0,    // SEDA/event-queue residency before a span ran
  kService,          // CPU the span actually consumed (ChargeCpu)
  kLockWait,         // blocked on a lock (StageProfiler::LiveLockWait)
  kDownstreamWait,   // waiting on a child span that had not started yet
  kSchedOther,       // remainder: disk, CPU-queueing, unmeasured time
};
inline constexpr size_t kWaitStateCount = 5;

constexpr const char* WaitStateName(WaitState s) {
  switch (s) {
    case WaitState::kQueueWait:
      return "queue_wait";
    case WaitState::kService:
      return "service";
    case WaitState::kLockWait:
      return "lock_wait";
    case WaitState::kDownstreamWait:
      return "downstream_wait";
    case WaitState::kSchedOther:
      return "sched_other";
  }
  return "unknown";
}

// One critical-path interval of a transaction, already folded by
// (stage, context, state): the output unit of AttributeTxn
// (attribution.h). The slices of one event sum exactly to its
// end-to-end latency.
struct AttrSlice {
  util::SymId stage = 0;
  context::NodeId ctxt = context::kEmptyContext;
  WaitState state = WaitState::kSchedOther;
  int64_t ns = 0;
};

// One stage's contiguous stretch of work for a transaction. A stage
// that is visited repeatedly (a SEDA stage once per object) produces
// one span per visit.
struct StageSpan {
  util::SymId stage = 0;          // interned stage name ("squid", "mysql", "WriteStage")
  int64_t start_ns = 0;     // virtual time
  int64_t duration_ns = 0;
  // Index (into TxnEvent::spans) of the span whose send caused this
  // one, -1 for the origin span. Drives the flow arrows in the Chrome
  // trace export.
  int32_t parent = -1;
  // Synopsis part piggy-backed on the message that started this span
  // (0 = none): the send/receive link the arrows are labeled with.
  uint32_t link = 0;
  // Measured wait-state components of this span (attribution feeds,
  // all 0 when the publisher does not measure them): queue residency
  // before the span started, CPU it consumed, lock wait it incurred.
  int64_t queue_ns = 0;
  int64_t service_ns = 0;
  int64_t lock_ns = 0;
  // Interned context the span's work ran under (kEmptyContext = fall
  // back to the event's root_ctxt at attribution time).
  context::NodeId ctxt = context::kEmptyContext;
};

using SpanVec = util::PooledVec<StageSpan>;
using AttrVec = util::PooledVec<AttrSlice>;

struct TxnEvent {
  uint64_t txn_id = 0;
  util::SymId type = 0;           // transaction type ("BestSellers", "cache_miss")
  util::SymId origin_stage = 0;   // stage that began the transaction
  // Interned context-tree node of the origin at completion time; the
  // aggregator's top-N context table keys on NodeIds like this.
  context::NodeId root_ctxt = context::kEmptyContext;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool error = false;
  SpanVec spans;
  // Critical-path attribution (attribution.h), computed by the daemon
  // pump when LiveOptions.attribution is on; slices sum to
  // end_ns - start_ns exactly.
  AttrVec attr;
};

// One publisher flush: completed events in completion order. Batches
// cross the publish channel so the pump wakes once per batch instead
// of once per transaction; completion order is preserved end to end,
// so batch boundaries can never leak into aggregation order.
using TxnBatch = util::PooledVec<TxnEvent>;

}  // namespace whodunit::obs::live

#endif  // SRC_OBS_LIVE_TXN_EVENT_H_
