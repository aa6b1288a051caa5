#include "src/obs/live/aggregator.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace whodunit::obs::live {
namespace {

// Shared fallback name for type SymId 0 (no SetTxnType ever arrived),
// resolved only at render time.
const std::string kUntypedName("(untyped)");

}  // namespace

const std::string& LiveAggregator::TypeName(util::SymId id) const {
  return id == 0 ? kUntypedName : syms_->Name(id);
}

void LiveAggregator::Ingest(const TxnEvent& event) {
  obs_txns_->Add();
  obs_spans_->Add(event.spans.size());

  ++txns_;
  // Integer-keyed probe; the tree node is only allocated the first
  // time a type or stage id is seen, never per event.
  TypeState& type = by_type_[event.type];
  type.latency_ns.Add(static_cast<uint64_t>(std::max<int64_t>(event.end_ns - event.start_ns, 0)));
  if (event.error) {
    ++type.errors;
    ++errors_;
  }
  for (const StageSpan& span : event.spans) {
    StageState& stage = by_stage_[span.stage];
    ++stage.spans;
    stage.busy_ns += static_cast<uint64_t>(std::max<int64_t>(span.duration_ns, 0));
  }
  if (event.root_ctxt != context::kEmptyContext) {
    // The transaction's own end-to-end latency also accrues to its
    // origin context so a type with little CPU but long waits still
    // surfaces; CPU-level attribution arrives separately via AddCost.
    cost_by_ctxt_.GetOrInsert(event.root_ctxt) += 0;
  }
  if (!event.attr.empty()) {
    obs_attr_txns_->Add();
    obs_attr_slices_->Add(event.attr.size());
    for (const AttrSlice& slice : event.attr) {
      attr_[{event.type, slice.stage, slice.ctxt,
             static_cast<uint8_t>(slice.state)}] += slice.ns;
    }
  }
}

void LiveAggregator::AddCost(context::NodeId ctxt, uint64_t cost_ns) {
  cost_by_ctxt_.GetOrInsert(ctxt) += cost_ns;
}

void LiveAggregator::NameTag(uint64_t tag, std::string_view name) {
  auto it = tag_names_.find(tag);
  if (it == tag_names_.end()) {
    tag_names_.emplace(tag, std::string(name));
  }
}

void LiveAggregator::IngestWait(uint64_t waiter_tag, uint64_t holder_tag, uint64_t wait_ns) {
  obs_waits_->Add();
  waits_[{waiter_tag, holder_tag}].Add(static_cast<double>(wait_ns));
}

void LiveAggregator::TypeRowsInto(std::vector<TypeRow>& rows) const {
  rows.resize(by_type_.size());
  size_t i = 0;
  for (const auto& [id, state] : by_type_) {
    TypeRow& row = rows[i++];
    row.type.assign(TypeName(id));
    row.count = state.latency_ns.count();
    row.errors = state.errors;
    row.mean_ms = state.latency_ns.mean() / 1e6;
    row.p50_ms = state.latency_ns.Quantile(0.50) / 1e6;
    row.p95_ms = state.latency_ns.Quantile(0.95) / 1e6;
    row.p99_ms = state.latency_ns.Quantile(0.99) / 1e6;
    row.p999_ms = state.latency_ns.Quantile(0.999) / 1e6;
  }
  std::sort(rows.begin(), rows.end(), [](const TypeRow& a, const TypeRow& b) {
    if (a.count != b.count) {
      return a.count > b.count;
    }
    return a.type < b.type;
  });
}

void LiveAggregator::StageRowsInto(std::vector<StageRow>& rows) const {
  rows.resize(by_stage_.size());
  size_t i = 0;
  for (const auto& [id, state] : by_stage_) {
    StageRow& row = rows[i++];
    row.stage.assign(syms_->Name(id));
    row.spans = state.spans;
    row.busy_ms = static_cast<double>(state.busy_ns) / 1e6;
  }
  // Busy-descending with a name tiebreak: iteration order above is
  // intern order, which differs across shards, so the tiebreak keeps
  // the view deterministic.
  std::sort(rows.begin(), rows.end(), [](const StageRow& a, const StageRow& b) {
    if (a.busy_ms != b.busy_ms) {
      return a.busy_ms > b.busy_ms;
    }
    return a.stage < b.stage;
  });
}

std::string LiveAggregator::TagName(uint64_t tag) const {
  auto it = tag_names_.find(tag);
  return it != tag_names_.end() ? it->second : "tag_" + std::to_string(tag);
}

void LiveAggregator::CrosstalkRowsInto(std::vector<PairRow>& rows) const {
  // Fold tag pairs into named-type pairs: many tags (one per context
  // snapshot) map to one transaction type.
  std::map<std::pair<std::string, std::string>, util::RunningStat> folded;
  for (const auto& [pair, stat] : waits_) {
    folded[{TagName(pair.first), TagName(pair.second)}].Merge(stat);
  }
  rows.resize(folded.size());
  size_t i = 0;
  for (const auto& [names, stat] : folded) {
    PairRow& row = rows[i++];
    row.waiter.assign(names.first);
    row.holder.assign(names.second);
    row.count = stat.count();
    row.mean_wait_ms = stat.mean() / 1e6;
  }
  std::sort(rows.begin(), rows.end(), [](const PairRow& a, const PairRow& b) {
    if (a.mean_wait_ms != b.mean_wait_ms) {
      return a.mean_wait_ms > b.mean_wait_ms;
    }
    if (a.waiter != b.waiter) {
      return a.waiter < b.waiter;
    }
    return a.holder < b.holder;
  });
}

void LiveAggregator::TopContextsInto(size_t n, std::vector<CtxtRow>& rows) const {
  rows.clear();
  cost_by_ctxt_.ForEach([&](const context::NodeId& ctxt, const uint64_t& cost) {
    rows.push_back(CtxtRow{ctxt, cost});
  });
  std::sort(rows.begin(), rows.end(), [](const CtxtRow& a, const CtxtRow& b) {
    if (a.cost_ns != b.cost_ns) {
      return a.cost_ns > b.cost_ns;
    }
    return a.ctxt < b.ctxt;
  });
  if (rows.size() > n) {
    rows.resize(n);
  }
}

std::vector<LiveAggregator::AttrRow> LiveAggregator::AttrRows() const {
  std::vector<AttrRow> rows;
  rows.reserve(attr_.size());
  for (const auto& [key, ns] : attr_) {
    rows.push_back(AttrRow{TypeName(std::get<0>(key)), syms_->Name(std::get<1>(key)),
                           std::get<2>(key), static_cast<WaitState>(std::get<3>(key)),
                           ns});
  }
  // attr_ is ordered by interned ids (first-seen order); re-sort by
  // name so the rows are deterministic regardless of ingest order. Interning is injective, so no two rows tie on all four.
  std::sort(rows.begin(), rows.end(), [](const AttrRow& a, const AttrRow& b) {
    if (const int c = a.type.compare(b.type)) return c < 0;
    if (const int c = a.stage.compare(b.stage)) return c < 0;
    if (a.ctxt != b.ctxt) return a.ctxt < b.ctxt;
    return a.state < b.state;
  });
  return rows;
}

std::string LiveAggregator::ExportAttrFolded() const {
  // Fold contexts out, re-keying by name through an ordered map so the
  // output is deterministic no matter the intern order.
  std::map<std::tuple<std::string, std::string, uint8_t>, int64_t> folded;
  for (const auto& [key, ns] : attr_) {
    folded[{TypeName(std::get<0>(key)), syms_->Name(std::get<1>(key)),
            std::get<3>(key)}] += ns;
  }
  std::string out;
  for (const auto& [key, ns] : folded) {
    out += std::get<0>(key);
    out += ';';
    out += std::get<1>(key);
    out += ';';
    out += WaitStateName(static_cast<WaitState>(std::get<2>(key)));
    out += ' ';
    out += std::to_string(ns);
    out += '\n';
  }
  return out;
}

const util::LogHistogram* LiveAggregator::HistogramFor(std::string_view type) const {
  for (const auto& [id, state] : by_type_) {
    if (TypeName(id) == type) {
      return &state.latency_ns;
    }
  }
  return nullptr;
}

}  // namespace whodunit::obs::live
