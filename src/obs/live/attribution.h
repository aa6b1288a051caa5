// Critical-path latency attribution for a completed transaction
// (docs/OBSERVABILITY.md "Wait-state taxonomy").
//
// AttributeTxn walks the span DAG of one TxnEvent (parent links ride
// the synopsis, daemon.h) and splits the end-to-end latency into
// wait-state slices along the critical path: every nanosecond between
// event.start_ns and event.end_ns lands in exactly one
// (stage, context, state) bucket, so the slices always sum to the
// end-to-end latency exactly. The extraction is deterministic —
// same event, same slices — which is what keeps merged attribution
// profiles byte-identical across shard/thread counts.
#ifndef SRC_OBS_LIVE_ATTRIBUTION_H_
#define SRC_OBS_LIVE_ATTRIBUTION_H_

#include <vector>

#include "src/util/symbol_table.h"
#include "src/obs/live/txn_event.h"

namespace whodunit::obs::live {

// Reusable working buffers for AttributeTxn. The walk runs once per
// published transaction on the daemon's ingest path; a caller that
// attributes a stream of events keeps one scratch alive so the
// per-event cost is the walk alone — after warmup neither the scratch
// nor the pooled output block touches the allocator
// (bench_ablation_live_obs gates the per-txn overhead and asserts the
// zero-allocation steady state).
struct AttrScratch {
  std::vector<uint32_t> child_off;
  std::vector<uint32_t> child_idx;
  std::vector<uint32_t> cursor;
  std::vector<int64_t> subtree_end;
  // Per-event stage table: unique stage symbols sorted by NAME (so
  // slice ordering matches the pre-interning string sort), and each
  // span's rank in it. Slices then sort and fold on integer ranks.
  std::vector<util::SymId> stages;
  std::vector<uint32_t> span_rank;
  struct RawSlice {
    uint32_t rank;
    context::NodeId ctxt;
    uint8_t state;
    int64_t ns;
  };
  std::vector<RawSlice> raw;
};

// Extracts the critical path of `event` and fills `out` with its
// wait-state slices, folded by (stage, ctxt, state) and ordered by
// stage name (resolved through `syms`), then ctxt, then state. `out`
// is cleared first; it may be event.attr itself (the daemon attributes
// in place). Empty when the event has no spans.
void AttributeTxn(const TxnEvent& event, const util::SymbolTable& syms,
                  AttrScratch& scratch, AttrVec& out);

// One-shot convenience overload (tests, ad-hoc callers): resolves
// names through the calling thread's Syms().
inline AttrVec AttributeTxn(const TxnEvent& event) {
  AttrScratch scratch;
  AttrVec out;
  AttributeTxn(event, util::Syms(), scratch, out);
  return out;
}

}  // namespace whodunit::obs::live

#endif  // SRC_OBS_LIVE_ATTRIBUTION_H_
