// Retention-bounded store of completed sampled-transaction records.
//
// The production counterpart of the span ring: where the ring keeps a
// fixed COUNT of recent events for trace export, the history keeps as
// many full transaction records as fit a BYTE budget, evicting oldest
// first — FoundationDB's `profile client set <rate> <size>` retention
// model. The budget is a soft limit: events accepted between flushes
// may push the total over it temporarily; each flush settles the
// store back under budget by deleting from the old end.
//
// Flushes happen every kHistoryFlushIntervalNs of virtual time (FDB's
// client profiler flushes every 30 seconds) driven by ingest
// timestamps, so the store needs no timer of its own and stays
// deterministic.
#ifndef SRC_OBS_LIVE_HISTORY_H_
#define SRC_OBS_LIVE_HISTORY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/symbol_table.h"
#include "src/obs/live/txn_event.h"
#include "src/obs/metrics.h"
#include "src/util/ring_queue.h"

namespace whodunit::obs::live {

// Virtual-time interval between flushes; a flush promotes pending
// events into the retained ring and evicts down to the budget.
inline constexpr int64_t kHistoryFlushIntervalNs = 30'000'000'000;

class TxnHistory {
 public:
  // `max_bytes` is the soft byte budget for retained records (0
  // disables the store). Counters/gauges resolve against
  // obs::Registry() at construction (shard-registry rule, same as
  // StageProfiler).
  explicit TxnHistory(size_t max_bytes);

  size_t max_bytes() const { return max_bytes_; }
  bool enabled() const { return max_bytes_ > 0; }

  // Accepts one completed transaction record; triggers a flush when
  // the flush interval has elapsed since the last one. Takes the event
  // by value so a caller that is done with it can move it in — the
  // record then retains the event's own pooled span/attr blocks and
  // the store never allocates (the pump does exactly this; see
  // Whodunitd::Pump).
  void Ingest(TxnEvent event, int64_t now);

  // Promotes pending events into the retained ring, then deletes
  // oldest-first until the ring is back under the byte budget.
  void Flush(int64_t now);

  size_t retained_txns() const { return retained_.size(); }
  size_t retained_bytes() const { return retained_bytes_; }
  size_t pending_txns() const { return pending_.size(); }
  uint64_t evicted_txns() const { return evicted_txns_; }
  uint64_t evicted_bytes() const { return evicted_bytes_; }
  uint64_t flushes() const { return flushes_; }

  // Retained records oldest first (pending ones are not visible until
  // the next flush, mirroring FDB's flush-then-query behaviour).
  std::vector<const TxnEvent*> Scan() const;

  // Machine-readable dump of the retained ring, oldest first (schema
  // whodunit-history-v1, docs/OBSERVABILITY.md).
  std::string ExportJson() const;

  // Approximate retained footprint of one record: struct size plus the
  // pooled span/attr blocks (names are interned SymIds, so they cost
  // the record nothing). The accounting unit the byte budget is
  // charged in.
  static size_t ApproxBytes(const TxnEvent& event);

 private:
  struct Entry {
    TxnEvent event;
    size_t bytes;
  };

  size_t max_bytes_;
  util::RingQueue<Entry> retained_;
  util::RingQueue<Entry> pending_;
  size_t retained_bytes_ = 0;
  size_t pending_bytes_ = 0;
  int64_t last_flush_ns_ = 0;
  bool saw_ingest_ = false;
  uint64_t evicted_txns_ = 0;
  uint64_t evicted_bytes_ = 0;
  uint64_t flushes_ = 0;

  // Names in ExportJson resolve through the thread-current table at
  // construction (shard-registry rule).
  const util::SymbolTable* syms_ = &util::Syms();
  Counter* obs_ingested_;
  Counter* obs_flushes_;
  Counter* obs_evicted_txns_;
  Counter* obs_evicted_bytes_;
  Gauge* obs_retained_txns_;
  Gauge* obs_retained_bytes_;
};

}  // namespace whodunit::obs::live

#endif  // SRC_OBS_LIVE_HISTORY_H_
