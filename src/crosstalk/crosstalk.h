// Transaction crosstalk: interference between concurrent transactions
// via lock contention (paper §6).
//
// The recorder observes every lock acquisition (through the simulated
// locks' observer hook). Tags are transaction-type identifiers (the
// profiler's context ids). For each wait it records the waiting
// transaction, the transaction that was holding the lock when the wait
// began, and the wait's length; the report aggregates the mean wait per
// ordered (waiter, holder) pair and per waiting transaction type —
// Table 1's "mean crosstalk wait time" column.
#ifndef SRC_CROSSTALK_CROSSTALK_H_
#define SRC_CROSSTALK_CROSSTALK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/sim/lock.h"
#include "src/util/stats.h"

namespace whodunit::crosstalk {

class CrosstalkRecorder : public sim::LockObserver {
 public:
  void OnAcquired(const sim::SimMutex& lock, uint64_t waiter_tag, uint64_t blocking_tag,
                  sim::SimTime wait) override;
  void OnReleased(const sim::SimMutex& lock, uint64_t holder_tag) override;

  // Mean wait (ns) of `waiter` when blocked behind `holder`; 0 if the
  // pair never contended.
  double MeanPairWait(uint64_t waiter, uint64_t holder) const;
  // Mean wait (ns) over all of this waiter's *waiting* acquisitions.
  double MeanWait(uint64_t waiter) const;
  // Mean wait (ns) over ALL of this waiter's acquisitions, waiting or
  // not — Table 1's "mean crosstalk wait time" per transaction type.
  double MeanWaitAllAcquires(uint64_t waiter) const;
  uint64_t WaitCount(uint64_t waiter) const;
  uint64_t acquires_observed() const { return acquires_observed_; }

  // Every tag this recorder has observed (waiters and holders),
  // ascending. Shard merging uses this to build tag translations.
  std::vector<uint64_t> Tags() const;

  struct PairRow {
    uint64_t waiter;
    uint64_t holder;
    uint64_t count;
    double mean_wait_ns;
  };
  // All contended pairs, heaviest mean wait first.
  std::vector<PairRow> PairRows() const;

  struct LockRow {
    std::string lock_name;
    uint64_t count;          // contended acquires
    double mean_wait_ns;     // over contended acquires
    double total_wait_ns;
  };
  // Which locks the interference happens on, heaviest total first —
  // the `item` table lock in the paper's §8.4 analysis.
  std::vector<LockRow> LockRows() const;

  // Text table using `namer` for tags.
  std::string Render(const std::function<std::string(uint64_t)>& namer) const;

  // The (waiter, holder) -> wait matrix behind PairRows, in tag-pair
  // order. The live daemon folds it by name for its crosstalk table.
  const std::map<std::pair<uint64_t, uint64_t>, util::RunningStat>& pair_waits() const {
    return pair_waits_;
  }

  // Folds another recorder (a shard's) into this one. `tag_remap`
  // translates the other recorder's tags — per-shard profiler context
  // ids — into this side's tag space; tags without a mapping keep
  // their value. Merging RunningStats is exact (count/sum/sum-of-
  // squares add), so folding shards in canonical order reproduces the
  // matrix a serial run over the combined job list would have built.
  void MergeFrom(const CrosstalkRecorder& other,
                 const std::function<uint64_t(uint64_t)>& tag_remap = nullptr);

 private:
  std::map<std::pair<uint64_t, uint64_t>, util::RunningStat> pair_waits_;
  std::map<uint64_t, util::RunningStat> waiter_waits_;
  std::map<uint64_t, util::RunningStat> all_acquires_;
  std::map<std::string, util::RunningStat> lock_waits_;
  uint64_t acquires_observed_ = 0;
};

}  // namespace whodunit::crosstalk

#endif  // SRC_CROSSTALK_CROSSTALK_H_
