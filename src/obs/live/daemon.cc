#include "src/obs/live/daemon.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "src/obs/live/attribution.h"
#include "src/obs/live/span_export.h"

namespace whodunit::obs::live {
namespace {

std::string Fixed(double v, int decimals = 1) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

void JsonEscapeInto(std::ostringstream& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\';
    }
    out << (c == '\n' ? ' ' : c);
  }
}

}  // namespace

Whodunitd::Whodunitd(sim::Scheduler& sched, LiveOptions options)
    : sched_(sched),
      options_(options),
      ch_(sched),
      history_(HistoryOptions{options.history_bytes, options.history_flush_interval_ns}),
      obs_begun_(&Registry().GetCounter("live.txns_begun")),
      obs_dropped_(&Registry().GetCounter("live.txns_dropped")),
      obs_abandoned_(&Registry().GetCounter("live.txns_abandoned")),
      obs_published_(&Registry().GetCounter("live.txns_published")),
      obs_batches_(&Registry().GetCounter("live.batches_published")),
      obs_inflight_(&Registry().GetGauge("live.inflight_txns")),
      obs_sampling_total_(&Registry().GetCounter("sampling.txns_total")),
      obs_sampling_sampled_(&Registry().GetCounter("sampling.txns_sampled")) {
  if (options_.publish_batch == 0) {
    options_.publish_batch = 1;
  }
  sim::Spawn(sched_, Pump());
}

Whodunitd::~Whodunitd() { Shutdown(); }

sim::Process Whodunitd::Pump() {
  for (;;) {
    auto batch = co_await ch_.Receive();
    if (!batch) {
      break;
    }
    // The batch preserves completion order, so iterating it here is
    // exactly the per-event ingest order an unbatched channel gave.
    for (TxnEvent& event : *batch) {
      if (options_.attribution) {
        // Pre-size to the session high-water so every record's attr
        // block lands in the same arena size class. The history's
        // byte-budgeted eviction makes its retained MIX of records
        // drift slowly; with per-shape block sizes that drift can
        // demand one more block of some class than any earlier
        // moment supplied, forcing a fresh allocation long after
        // warmup. Uniform blocks make pool demand depend only on
        // record COUNT, which is strictly periodic — this is what
        // holds the steady-state allocation count at exactly zero
        // (bench_ablation_live_obs gates it).
        event.attr.reserve(attr_cap_highwater_);
        AttributeTxn(event, *syms_, attr_scratch_, event.attr);
        attr_cap_highwater_ =
            std::max(attr_cap_highwater_, event.attr.capacity());
      }
      agg_.Ingest(event);
      // Ownership split: the recent ring takes the copy, the
      // byte-budgeted history takes the move (it is the last consumer,
      // so retention reuses the event's own blocks and never draws a
      // fresh one). The ring recycles its oldest slot in place —
      // PooledVec copy assignment reuses the slot's existing blocks —
      // so once every slot has seen the largest event shape the ring
      // stops touching the arena entirely.
      if (options_.span_ring > 0) {
        if (recent_.size() < options_.span_ring) {
          recent_.push_back(event);
        } else {
          recent_.rotate_front_to_back();
          recent_.back() = event;
        }
      }
      history_.Ingest(std::move(event), sched_.now());
    }
    // Batch destructs here: its pooled block recycles to the arena.
  }
  // The channel only closes at Shutdown, whose own flush ran before
  // this drain delivered its last batch: settle the stragglers so the
  // final snapshot (and the why-tail report) sees every ingested event.
  history_.Flush(sched_.now());
}

uint64_t Whodunitd::BeginTxn(util::SymId origin_stage, int64_t now) {
  if (shutdown_ || builders_.size() >= options_.max_inflight) {
    obs_dropped_->Add();
    return 0;
  }
  obs_begun_->Add();
  const uint64_t txn = next_txn_++;
  Builder builder;
  builder.event.txn_id = txn;
  builder.event.origin_stage = origin_stage;
  builder.event.start_ns = now;
  builder.event.spans.push_back(
      StageSpan{origin_stage, now, 0, /*parent=*/-1, /*link=*/0});
  builder.open.push_back({0, 0});
  builders_.Upsert(txn, std::move(builder));
  obs_inflight_->Set(static_cast<int64_t>(builders_.size()));
  return txn;
}

void Whodunitd::SetTxnType(uint64_t txn, util::SymId type) {
  if (auto* b = builders_.Find(txn)) {
    b->event.type = type;
  }
}

void Whodunitd::SetTxnCtxt(uint64_t txn, context::NodeId ctxt) {
  if (auto* b = builders_.Find(txn)) {
    b->event.root_ctxt = ctxt;
  }
}

void Whodunitd::JoinSpan(uint64_t txn, util::SymId stage, uint32_t link, int64_t now,
                         int64_t queue_ns, context::NodeId ctxt) {
  auto* found = builders_.Find(txn);
  if (found == nullptr) {
    return;
  }
  Builder& b = *found;
  // Parent = the open span that most recently sent this link; fall
  // back to the innermost open span (its request is still pending).
  int32_t parent = -1;
  for (size_t i = b.open.size(); i-- > 0;) {
    if (link != 0 && b.open[i].second == link) {
      parent = b.open[i].first;
      break;
    }
    if (parent < 0) {
      parent = b.open[i].first;
    }
  }
  const auto index = static_cast<int32_t>(b.event.spans.size());
  b.event.spans.push_back(
      StageSpan{stage, now, 0, parent, link, queue_ns, 0, 0, ctxt});
  b.open.push_back({index, 0});
}

void Whodunitd::AddSpanWait(uint64_t txn, util::SymId stage, WaitState state,
                            int64_t ns) {
  if (ns <= 0) {
    return;
  }
  auto* found = builders_.Find(txn);
  if (found == nullptr) {
    return;
  }
  Builder& b = *found;
  for (size_t i = b.open.size(); i-- > 0;) {
    StageSpan& span = b.event.spans[static_cast<size_t>(b.open[i].first)];
    if (span.stage == stage) {
      switch (state) {
        case WaitState::kQueueWait:
          span.queue_ns += ns;
          break;
        case WaitState::kService:
          span.service_ns += ns;
          break;
        case WaitState::kLockWait:
          span.lock_ns += ns;
          break;
        default:
          break;
      }
      return;
    }
  }
}

void Whodunitd::NoteSend(uint64_t txn, util::SymId stage, uint32_t link) {
  auto* found = builders_.Find(txn);
  if (found == nullptr) {
    return;
  }
  Builder& b = *found;
  for (size_t i = b.open.size(); i-- > 0;) {
    if (b.event.spans[static_cast<size_t>(b.open[i].first)].stage == stage) {
      b.open[i].second = link;
      return;
    }
  }
}

void Whodunitd::EndSpan(uint64_t txn, util::SymId stage, int64_t now) {
  auto* found = builders_.Find(txn);
  if (found == nullptr) {
    return;
  }
  Builder& b = *found;
  for (size_t i = b.open.size(); i-- > 0;) {
    StageSpan& span = b.event.spans[static_cast<size_t>(b.open[i].first)];
    if (span.stage == stage) {
      span.duration_ns = now - span.start_ns;
      // Shift-erase: the common case closes the innermost (last)
      // entry, where this is a plain pop.
      for (size_t j = i + 1; j < b.open.size(); ++j) {
        b.open[j - 1] = b.open[j];
      }
      b.open.pop_back();
      return;
    }
  }
}

void Whodunitd::ErrorTxn(uint64_t txn) {
  if (auto* b = builders_.Find(txn)) {
    b->event.error = true;
  }
}

void Whodunitd::CompleteTxn(uint64_t txn, int64_t now) {
  auto* found = builders_.Find(txn);
  if (found == nullptr) {
    return;
  }
  Builder& b = *found;
  for (size_t i = 0; i < b.open.size(); ++i) {
    StageSpan& span = b.event.spans[static_cast<size_t>(b.open[i].first)];
    span.duration_ns = now - span.start_ns;
  }
  b.open.clear();
  b.event.end_ns = now;
  obs_published_->Add();
  if (batch_.empty()) {
    batch_opened_ns_ = now;
  }
  batch_.push_back(std::move(b.event));
  builders_.Erase(txn);
  obs_inflight_->Set(static_cast<int64_t>(builders_.size()));
  if (batch_.size() >= options_.publish_batch ||
      now - batch_opened_ns_ >= options_.publish_flush_interval_ns) {
    FlushBatch();
  }
}

void Whodunitd::FlushBatch() {
  if (batch_.empty()) {
    return;
  }
  obs_batches_->Add();
  // Move steals the pooled block; batch_ is left empty and re-pools a
  // recycled block on the next completion.
  ch_.Send(std::move(batch_));
}

void Whodunitd::Top(TopSnapshot& snap, size_t max_types, size_t max_contexts) const {
  if (flush_hook_) {
    flush_hook_();
  }
  snap.as_of_ns = sched_.now();
  snap.txns = agg_.txns();
  snap.errors = agg_.errors();
  snap.inflight = builders_.size();
  snap.sampling_total = obs_sampling_total_->Value();
  snap.sampling_sampled = obs_sampling_sampled_->Value();
  snap.history_txns = history_.retained_txns();
  snap.history_bytes = history_.retained_bytes();
  snap.history_evicted = history_.evicted_txns();
  agg_.TypeRowsInto(snap.types);
  if (snap.types.size() > max_types) {
    snap.types.resize(max_types);
  }
  agg_.StageRowsInto(snap.stages);
  agg_.CrosstalkRowsInto(snap.crosstalk);
  agg_.TopContextsInto(max_contexts, snap.contexts);
}

void Whodunitd::RenderTop(const TopSnapshot& snap, std::string& out) const {
  out.clear();
  out += "whodunitd — live transactional profile @ ";
  out += Fixed(snap.as_of_ns / 1e9);
  out += "s   (";
  out += std::to_string(snap.txns);
  out += " txns, ";
  out += std::to_string(snap.errors);
  out += " errors, ";
  out += std::to_string(snap.inflight);
  out += " in flight)\n";
  if (snap.sampling_total > 0) {
    const double pct =
        100.0 * static_cast<double>(snap.sampling_sampled) / static_cast<double>(snap.sampling_total);
    out += "  sampling: ";
    out += std::to_string(snap.sampling_sampled);
    out += "/";
    out += std::to_string(snap.sampling_total);
    out += " txns sampled (";
    out += Fixed(pct, 2);
    out += "%)   history: ";
    out += std::to_string(snap.history_txns);
    out += " txns / ";
    out += std::to_string(snap.history_bytes);
    out += " B retained, ";
    out += std::to_string(snap.history_evicted);
    out += " evicted\n";
  }
  out += "\n";
  char line[256];
  std::snprintf(line, sizeof line, "  %-26s %8s %5s %10s %10s %10s %10s %10s\n", "TYPE",
                "COUNT", "ERR", "MEAN(ms)", "P50(ms)", "P95(ms)", "P99(ms)", "P99.9(ms)");
  out += line;
  for (const auto& row : snap.types) {
    std::snprintf(line, sizeof line,
                  "  %-26s %8llu %5llu %10.2f %10.2f %10.2f %10.2f %10.2f\n",
                  row.type.c_str(), static_cast<unsigned long long>(row.count),
                  static_cast<unsigned long long>(row.errors), row.mean_ms, row.p50_ms,
                  row.p95_ms, row.p99_ms, row.p999_ms);
    out += line;
  }
  out += "\n";
  std::snprintf(line, sizeof line, "  %-26s %10s %14s\n", "STAGE", "SPANS", "BUSY(ms)");
  out += line;
  for (const auto& row : snap.stages) {
    std::snprintf(line, sizeof line, "  %-26s %10llu %14.1f\n", row.stage.c_str(),
                  static_cast<unsigned long long>(row.spans), row.busy_ms);
    out += line;
  }
  out += "\n  CROSSTALK (waiter <- holder)";
  out += snap.crosstalk.empty() ? ": none\n" : "\n";
  for (const auto& row : snap.crosstalk) {
    std::snprintf(line, sizeof line, "  %-20s <- %-20s %8llu waits %10.2f ms mean\n",
                  row.waiter.c_str(), row.holder.c_str(),
                  static_cast<unsigned long long>(row.count), row.mean_wait_ms);
    out += line;
  }
  if (!snap.contexts.empty()) {
    out += "\n  TOP CONTEXTS BY CPU\n";
    for (const auto& row : snap.contexts) {
      const std::string name =
          ctxt_namer_ ? ctxt_namer_(row.ctxt) : "ctxt_" + std::to_string(row.ctxt);
      std::snprintf(line, sizeof line, "  %12.2f ms  %s\n",
                    static_cast<double>(row.cost_ns) / 1e6, name.c_str());
      out += line;
    }
  }
}

std::string Whodunitd::QueryJson(size_t max_types, size_t max_contexts) const {
  const TopSnapshot snap = Top(max_types, max_contexts);
  std::ostringstream out;
  out << "{\"schema\":\"whodunit-live-v1\",\"as_of_ns\":" << snap.as_of_ns
      << ",\"txns\":" << snap.txns << ",\"errors\":" << snap.errors
      << ",\"inflight\":" << snap.inflight
      << ",\"sampling\":{\"txns_total\":" << snap.sampling_total
      << ",\"txns_sampled\":" << snap.sampling_sampled
      << "},\"history\":{\"retained_txns\":" << snap.history_txns
      << ",\"retained_bytes\":" << snap.history_bytes
      << ",\"evicted_txns\":" << snap.history_evicted << "},\"types\":[";
  for (size_t i = 0; i < snap.types.size(); ++i) {
    const auto& row = snap.types[i];
    out << (i ? "," : "") << "\n{\"type\":\"";
    JsonEscapeInto(out, row.type);
    out << "\",\"count\":" << row.count << ",\"errors\":" << row.errors
        << ",\"mean_ms\":" << Fixed(row.mean_ms, 3) << ",\"p50_ms\":" << Fixed(row.p50_ms, 3)
        << ",\"p95_ms\":" << Fixed(row.p95_ms, 3) << ",\"p99_ms\":" << Fixed(row.p99_ms, 3)
        << ",\"p999_ms\":" << Fixed(row.p999_ms, 3) << "}";
  }
  out << "],\"stages\":[";
  for (size_t i = 0; i < snap.stages.size(); ++i) {
    const auto& row = snap.stages[i];
    out << (i ? "," : "") << "\n{\"stage\":\"";
    JsonEscapeInto(out, row.stage);
    out << "\",\"spans\":" << row.spans << ",\"busy_ms\":" << Fixed(row.busy_ms, 3) << "}";
  }
  out << "],\"crosstalk\":[";
  for (size_t i = 0; i < snap.crosstalk.size(); ++i) {
    const auto& row = snap.crosstalk[i];
    out << (i ? "," : "") << "\n{\"waiter\":\"";
    JsonEscapeInto(out, row.waiter);
    out << "\",\"holder\":\"";
    JsonEscapeInto(out, row.holder);
    out << "\",\"count\":" << row.count << ",\"mean_wait_ms\":" << Fixed(row.mean_wait_ms, 3)
        << "}";
  }
  out << "],\"contexts\":[";
  for (size_t i = 0; i < snap.contexts.size(); ++i) {
    const auto& row = snap.contexts[i];
    out << (i ? "," : "") << "\n{\"ctxt\":" << row.ctxt << ",\"cost_ns\":" << row.cost_ns
        << ",\"name\":\"";
    JsonEscapeInto(out, ctxt_namer_ ? ctxt_namer_(row.ctxt) : "ctxt_" + std::to_string(row.ctxt));
    out << "\"}";
  }
  out << "],\"attr\":{\"schema\":\"whodunit-attr-v1\",\"rows\":[";
  const auto attr_rows = agg_.AttrRows();
  for (size_t i = 0; i < attr_rows.size(); ++i) {
    const auto& row = attr_rows[i];
    out << (i ? "," : "") << "\n{\"type\":\"";
    JsonEscapeInto(out, row.type);
    out << "\",\"stage\":\"";
    JsonEscapeInto(out, row.stage);
    out << "\",\"ctxt\":" << row.ctxt << ",\"state\":\"" << WaitStateName(row.state)
        << "\",\"ns\":" << row.ns << "}";
  }
  out << "]},\"why_tail\":{\"fast_q\":0.5,\"tail_q\":0.99,\"types\":[";
  const auto tail_types = WhyTail();
  for (size_t i = 0; i < tail_types.size(); ++i) {
    const auto& type = tail_types[i];
    out << (i ? "," : "") << "\n{\"type\":\"";
    JsonEscapeInto(out, type.type);
    out << "\",\"fast_txns\":" << type.fast_txns << ",\"tail_txns\":" << type.tail_txns
        << ",\"fast_ms\":" << Fixed(type.fast_ms, 3)
        << ",\"tail_ms\":" << Fixed(type.tail_ms, 3) << ",\"deltas\":[";
    for (size_t j = 0; j < type.deltas.size(); ++j) {
      const auto& delta = type.deltas[j];
      out << (j ? "," : "") << "{\"stage\":\"";
      JsonEscapeInto(out, delta.stage);
      out << "\",\"state\":\"" << WaitStateName(delta.state)
          << "\",\"fast_ms\":" << Fixed(delta.fast_ms, 3)
          << ",\"tail_ms\":" << Fixed(delta.tail_ms, 3)
          << ",\"delta_ms\":" << Fixed(delta.delta_ms, 3) << "}";
    }
    out << "]}";
  }
  out << "]}}\n";
  return out.str();
}

std::vector<Whodunitd::WhyTailType> Whodunitd::WhyTail(double fast_q,
                                                       double tail_q) const {
  // Group the retained history by transaction type, split each type's
  // population at its own p50/p99 latency (nearest-rank over the
  // retained sample), and compare the mean per-(stage, state)
  // critical-path cost of the two groups.
  std::map<util::SymId, std::vector<const TxnEvent*>> by_type;
  for (const TxnEvent* event : history_.Scan()) {
    if (event->attr.empty()) {
      continue;
    }
    by_type[event->type].push_back(event);
  }
  std::vector<WhyTailType> out;
  for (const auto& [type, events] : by_type) {
    std::vector<int64_t> latencies;
    latencies.reserve(events.size());
    for (const TxnEvent* event : events) {
      latencies.push_back(event->end_ns - event->start_ns);
    }
    std::sort(latencies.begin(), latencies.end());
    const auto rank = [&](double q) {
      const size_t n = latencies.size();
      size_t idx = static_cast<size_t>(q * static_cast<double>(n));
      return latencies[std::min(idx, n - 1)];
    };
    const int64_t fast_cut = rank(fast_q);
    const int64_t tail_cut = rank(tail_q);

    WhyTailType row;
    row.type = type == 0 ? "(untyped)" : syms_->Name(type);
    // Mean per-(stage, state) attribution of each group; every bucket
    // is normalized by the group's txn count, so a state absent from
    // one group still yields a delta.
    std::map<std::pair<util::SymId, uint8_t>, std::pair<int64_t, int64_t>> buckets;
    int64_t fast_total = 0;
    int64_t tail_total = 0;
    for (const TxnEvent* event : events) {
      const int64_t latency = event->end_ns - event->start_ns;
      const bool fast = latency <= fast_cut;
      const bool tail = latency >= tail_cut;
      if (!fast && !tail) {
        continue;
      }
      if (fast) {
        ++row.fast_txns;
        fast_total += latency;
      }
      if (tail) {
        ++row.tail_txns;
        tail_total += latency;
      }
      for (const AttrSlice& slice : event->attr) {
        auto& bucket = buckets[{slice.stage, static_cast<uint8_t>(slice.state)}];
        if (fast) {
          bucket.first += slice.ns;
        }
        if (tail) {
          bucket.second += slice.ns;
        }
      }
    }
    if (row.fast_txns == 0 || row.tail_txns == 0) {
      continue;
    }
    row.fast_ms = static_cast<double>(fast_total) / static_cast<double>(row.fast_txns) / 1e6;
    row.tail_ms = static_cast<double>(tail_total) / static_cast<double>(row.tail_txns) / 1e6;
    for (const auto& [key, sums] : buckets) {
      WhyTailDelta delta;
      delta.stage = syms_->Name(key.first);
      delta.state = static_cast<WaitState>(key.second);
      delta.fast_ms =
          static_cast<double>(sums.first) / static_cast<double>(row.fast_txns) / 1e6;
      delta.tail_ms =
          static_cast<double>(sums.second) / static_cast<double>(row.tail_txns) / 1e6;
      delta.delta_ms = delta.tail_ms - delta.fast_ms;
      row.deltas.push_back(std::move(delta));
    }
    // Buckets arrive in intern-id order, which is shard-dependent;
    // explicit (delta desc, stage name, state) ordering keeps the
    // report deterministic and matches the old name-keyed stable sort.
    std::sort(row.deltas.begin(), row.deltas.end(),
              [](const WhyTailDelta& a, const WhyTailDelta& b) {
                if (a.delta_ms != b.delta_ms) {
                  return a.delta_ms > b.delta_ms;
                }
                if (a.stage != b.stage) {
                  return a.stage < b.stage;
                }
                return a.state < b.state;
              });
    out.push_back(std::move(row));
  }
  // Heaviest tails first; name tiebreak keeps the report deterministic.
  std::sort(out.begin(), out.end(), [](const WhyTailType& a, const WhyTailType& b) {
    const double ga = a.tail_ms - a.fast_ms;
    const double gb = b.tail_ms - b.fast_ms;
    if (ga != gb) {
      return ga > gb;
    }
    return a.type < b.type;
  });
  return out;
}

std::string Whodunitd::RenderWhyTail() const {
  const auto types = WhyTail();
  std::ostringstream out;
  out << "whodunitd — why-tail: p99 vs p50 critical-path attribution ("
      << history_.retained_txns() << " txns retained)\n";
  if (types.empty()) {
    out << "  (no attributed history: enable --history-bytes and attribution)\n";
    return out.str();
  }
  char line[256];
  for (const auto& type : types) {
    out << "\n  " << type.type << ": p50 cohort " << type.fast_txns << " txns @ "
        << Fixed(type.fast_ms, 2) << " ms, p99 cohort " << type.tail_txns << " txns @ "
        << Fixed(type.tail_ms, 2) << " ms (gap " << Fixed(type.tail_ms - type.fast_ms, 2)
        << " ms)\n";
    std::snprintf(line, sizeof line, "    %-22s %-16s %10s %10s %10s\n", "STAGE", "STATE",
                  "P50(ms)", "P99(ms)", "DELTA(ms)");
    out << line;
    for (const auto& delta : type.deltas) {
      std::snprintf(line, sizeof line, "    %-22s %-16s %10.2f %10.2f %+10.2f\n",
                    delta.stage.c_str(), WaitStateName(delta.state), delta.fast_ms,
                    delta.tail_ms, delta.delta_ms);
      out << line;
    }
  }
  return out.str();
}

std::vector<TxnEvent> Whodunitd::RecentEvents() const {
  std::vector<TxnEvent> out;
  out.reserve(recent_.size());
  for (size_t i = 0; i < recent_.size(); ++i) {
    out.push_back(recent_[i]);
  }
  return out;
}

std::string Whodunitd::ExportSpansJson() const {
  return ExportChromeTrace(RecentEvents(), *syms_);
}

void Whodunitd::Shutdown() {
  if (shutdown_) {
    return;
  }
  shutdown_ = true;
  obs_abandoned_->Add(builders_.size());
  builders_.Clear();
  obs_inflight_->Set(0);
  // Ship the partial batch before closing: the channel is FIFO and
  // Close is in-band, so the pump ingests it before draining out —
  // post-shutdown exports are therefore batch-size invariant.
  FlushBatch();
  // Settle the history's pending batch so the final snapshot reflects
  // everything the daemon ingested.
  history_.Flush(sched_.now());
  ch_.Close();
}

}  // namespace whodunit::obs::live
