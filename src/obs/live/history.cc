#include "src/obs/live/history.h"

#include <sstream>
#include <utility>

#include "src/obs/export.h"

namespace whodunit::obs::live {

TxnHistory::TxnHistory(size_t max_bytes)
    : max_bytes_(max_bytes),
      obs_ingested_(&Registry().GetCounter("history.txns_ingested")),
      obs_flushes_(&Registry().GetCounter("history.flushes")),
      obs_evicted_txns_(&Registry().GetCounter("history.evicted_txns")),
      obs_evicted_bytes_(&Registry().GetCounter("history.evicted_bytes")),
      obs_retained_txns_(&Registry().GetGauge("history.retained_txns")),
      obs_retained_bytes_(&Registry().GetGauge("history.retained_bytes")) {}

size_t TxnHistory::ApproxBytes(const TxnEvent& event) {
  // Names are interned, so the record's footprint is the struct plus
  // its pooled span/attr blocks — capacity, not size, since the pooled
  // block is what the record actually holds onto.
  size_t bytes = sizeof(TxnEvent);
  bytes += event.spans.capacity() * sizeof(StageSpan);
  bytes += event.attr.capacity() * sizeof(AttrSlice);
  return bytes;
}

void TxnHistory::Ingest(TxnEvent event, int64_t now) {
  if (!enabled()) {
    return;
  }
  if (!saw_ingest_) {
    // The flush clock starts at the first record, not at virtual time
    // zero, so a late-starting daemon does not flush immediately.
    saw_ingest_ = true;
    last_flush_ns_ = now;
  }
  const size_t bytes = ApproxBytes(event);
  pending_.push_back(Entry{std::move(event), bytes});
  pending_bytes_ += bytes;
  obs_ingested_->Add();
  if (now - last_flush_ns_ >= kHistoryFlushIntervalNs) {
    Flush(now);
  }
}

void TxnHistory::Flush(int64_t now) {
  if (!enabled() || (pending_.empty() && retained_bytes_ <= max_bytes_)) {
    last_flush_ns_ = now;
    return;
  }
  ++flushes_;
  obs_flushes_->Add();
  while (!pending_.empty()) {
    retained_bytes_ += pending_.front().bytes;
    retained_.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  pending_bytes_ = 0;
  // Oldest-first eviction down to the soft limit. A single record
  // larger than the whole budget still stays until a newer one
  // arrives — the store never evicts its only record to emptiness
  // unless the budget forces it.
  while (retained_bytes_ > max_bytes_ && !retained_.empty()) {
    retained_bytes_ -= retained_.front().bytes;
    ++evicted_txns_;
    evicted_bytes_ += retained_.front().bytes;
    obs_evicted_txns_->Add();
    obs_evicted_bytes_->Add(retained_.front().bytes);
    retained_.pop_front();
  }
  obs_retained_txns_->Set(static_cast<int64_t>(retained_.size()));
  obs_retained_bytes_->Set(static_cast<int64_t>(retained_bytes_));
  last_flush_ns_ = now;
}

std::vector<const TxnEvent*> TxnHistory::Scan() const {
  std::vector<const TxnEvent*> out;
  out.reserve(retained_.size());
  for (size_t i = 0; i < retained_.size(); ++i) {
    out.push_back(&retained_[i].event);
  }
  return out;
}

std::string TxnHistory::ExportJson() const {
  std::ostringstream out;
  out << "{\"schema\":\"whodunit-history-v1\",\"retained_txns\":" << retained_.size()
      << ",\"retained_bytes\":" << retained_bytes_ << ",\"evicted_txns\":" << evicted_txns_
      << ",\"evicted_bytes\":" << evicted_bytes_ << ",\"flushes\":" << flushes_
      << ",\"txns\":[";
  bool first = true;
  for (size_t e = 0; e < retained_.size(); ++e) {
    const TxnEvent& ev = retained_[e].event;
    out << (first ? "" : ",") << "\n{\"txn_id\":" << ev.txn_id
        << ",\"type\":" << JsonString(syms_->Name(ev.type))
        << ",\"origin\":" << JsonString(syms_->Name(ev.origin_stage))
        << ",\"start_ns\":" << ev.start_ns << ",\"end_ns\":" << ev.end_ns
        << ",\"error\":" << (ev.error ? "true" : "false") << ",\"spans\":[";
    for (size_t i = 0; i < ev.spans.size(); ++i) {
      const StageSpan& span = ev.spans[i];
      out << (i ? "," : "") << "{\"stage\":" << JsonString(syms_->Name(span.stage))
          << ",\"start_ns\":" << span.start_ns << ",\"duration_ns\":" << span.duration_ns
          << ",\"parent\":" << span.parent << ",\"link\":" << span.link << "}";
    }
    out << "]}";
    first = false;
  }
  out << "]}\n";
  return out.str();
}

}  // namespace whodunit::obs::live
