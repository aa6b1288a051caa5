// Live transaction observability: online, streaming aggregation state.
//
// The LiveAggregator is the queryable core of the whodunitd daemon: it
// folds every completed TxnEvent into constant-size state — no sample
// retention — and answers the operator questions the paper's offline
// reports answer post mortem:
//
//   * per-transaction-type latency: mergeable log-bucketed histograms
//     (util::LogHistogram) giving p50/p95/p99 without storing samples;
//   * the crosstalk matrix keyed by (waiter-type, holder-type), read
//     at query time from the deployment's CrosstalkRecorder
//     (src/crosstalk) and folded by tag name;
//   * top-N transaction contexts by cumulative CPU cost, keyed by
//     interned ContextTree NodeIds (charged by the stage profilers'
//     ChargeCpu);
//   * per-stage throughput / busy-time / error counters.
//
// All internal state is keyed by interned SymIds (symbol_table.h), so
// the per-event ingest fold is pure integer probes — no string hashing
// and no steady-state allocation. Ids are per-shard first-intern
// order, so every user-facing view (TypeRows, AttrRows,
// ExportAttrFolded) re-sorts by resolved name to stay deterministic
// across ingest interleavings.
#ifndef SRC_OBS_LIVE_AGGREGATOR_H_
#define SRC_OBS_LIVE_AGGREGATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/context/context_tree.h"
#include "src/crosstalk/crosstalk.h"
#include "src/util/symbol_table.h"
#include "src/obs/live/txn_event.h"
#include "src/obs/metrics.h"
#include "src/util/robin_hood.h"
#include "src/util/stats.h"

namespace whodunit::obs::live {

class LiveAggregator {
 public:
  // ---- Ingest (daemon side) -----------------------------------------
  void Ingest(const TxnEvent& event);
  // Cumulative CPU cost charged under an interned transaction context.
  void AddCost(context::NodeId ctxt, uint64_t cost_ns);
  // Names a crosstalk tag (profiler context id) with a transaction
  // type; unnamed tags render as "tag_<id>".
  void NameTag(uint64_t tag, std::string_view name);
  // The recorder whose pair matrix CrosstalkRowsInto reads (nullptr:
  // no crosstalk rows). It must outlive this aggregator's queries.
  void set_crosstalk(const crosstalk::CrosstalkRecorder* recorder) { crosstalk_ = recorder; }

  // ---- Queries -------------------------------------------------------
  // The *Into variants refill caller-owned rows in place (string and
  // vector capacity is reused) so a refreshing poller — whodunit_top —
  // is allocation-quiet once warm.
  struct TypeRow {
    std::string type;
    uint64_t count = 0;
    uint64_t errors = 0;
    double mean_ms = 0;
    double p50_ms = 0;
    double p95_ms = 0;
    double p99_ms = 0;
    double p999_ms = 0;
  };
  // Per-type latency rows, highest count first.
  void TypeRowsInto(std::vector<TypeRow>& rows) const;
  std::vector<TypeRow> TypeRows() const {
    std::vector<TypeRow> rows;
    TypeRowsInto(rows);
    return rows;
  }

  struct StageRow {
    std::string stage;
    uint64_t spans = 0;
    double busy_ms = 0;
  };
  void StageRowsInto(std::vector<StageRow>& rows) const;
  std::vector<StageRow> StageRows() const {
    std::vector<StageRow> rows;
    StageRowsInto(rows);
    return rows;
  }

  struct PairRow {
    std::string waiter;
    std::string holder;
    uint64_t count = 0;
    double mean_wait_ms = 0;
  };
  // The recorder's crosstalk matrix with tags folded into names,
  // heaviest mean wait first.
  void CrosstalkRowsInto(std::vector<PairRow>& rows) const;
  std::vector<PairRow> CrosstalkRows() const {
    std::vector<PairRow> rows;
    CrosstalkRowsInto(rows);
    return rows;
  }

  struct CtxtRow {
    context::NodeId ctxt = context::kEmptyContext;
    uint64_t cost_ns = 0;
  };
  // The n most expensive transaction contexts by cumulative cost.
  void TopContextsInto(size_t n, std::vector<CtxtRow>& rows) const;
  std::vector<CtxtRow> TopContexts(size_t n) const {
    std::vector<CtxtRow> rows;
    TopContextsInto(n, rows);
    return rows;
  }

  // Cumulative critical-path wait-state cost per (txn-type, stage,
  // context, state), from the attribution slices riding each ingested
  // event (attribution.h). Deterministically ordered.
  struct AttrRow {
    std::string type;
    std::string stage;
    context::NodeId ctxt = context::kEmptyContext;
    WaitState state = WaitState::kSchedOther;
    int64_t ns = 0;
  };
  std::vector<AttrRow> AttrRows() const;
  // Folded-stack flamegraph lines (whodunit-attr-v1,
  // docs/PROFILE_FORMAT.md): "type;stage;state <ns>\n", contexts
  // folded out, deterministic order.
  std::string ExportAttrFolded() const;

  const util::LogHistogram* HistogramFor(std::string_view type) const;
  uint64_t txns() const { return txns_; }
  uint64_t errors() const { return errors_; }

  // The symbol table this aggregator's SymIds resolve through (the
  // thread-current table at construction).
  const util::SymbolTable& syms() const { return *syms_; }

 private:
  struct TypeState {
    util::LogHistogram latency_ns;
    uint64_t errors = 0;
  };
  struct StageState {
    uint64_t spans = 0;
    uint64_t busy_ns = 0;
  };

  std::string TagName(uint64_t tag) const;
  // Resolves a type SymId for display: id 0 renders as "(untyped)".
  const std::string& TypeName(util::SymId id) const;

  // Keyed by interned SymId; probes on the per-event ingest path are
  // integer compares, and a tree node is only allocated the first time
  // a key is seen — steady-state ingest never allocates.
  std::map<util::SymId, TypeState> by_type_;
  std::map<util::SymId, StageState> by_stage_;
  // (type, stage, ctxt, state) -> cumulative critical-path ns.
  std::map<std::tuple<util::SymId, util::SymId, context::NodeId, uint8_t>, int64_t> attr_;
  const crosstalk::CrosstalkRecorder* crosstalk_ = nullptr;
  std::map<uint64_t, std::string> tag_names_;
  util::RobinHoodMap<context::NodeId, uint64_t> cost_by_ctxt_;
  uint64_t txns_ = 0;
  uint64_t errors_ = 0;
  // Bound at construction (shard-registry rule): an aggregator built
  // inside a shard isolate reports into that shard's metrics registry
  // and resolves names through that shard's symbol table.
  util::SymbolTable* syms_ = &util::Syms();
  Counter* obs_txns_ = &Registry().GetCounter("live.txns_ingested");
  Counter* obs_spans_ = &Registry().GetCounter("live.spans_ingested");
  Counter* obs_attr_txns_ = &Registry().GetCounter("live.attr.txns_attributed");
  Counter* obs_attr_slices_ = &Registry().GetCounter("live.attr.slices");
};

}  // namespace whodunit::obs::live

#endif  // SRC_OBS_LIVE_AGGREGATOR_H_
