// Self-observability: metrics for the profiler's own machinery.
//
// Whodunit quantifies its overhead budgets from the outside (Tables
// 2-3, §9); this layer lets the reproduction watch itself from the
// inside: how many samples the sampler fired, how often the §3
// dictionary propagated a context, how many synopses were recognized
// as responses. Every subsystem registers named instruments here and
// a snapshot (folded across shards) is exported as JSON at bench
// exit — see docs/METRICS.md for the full catalog and schema.
//
// Single-writer contract: a registry and its instruments are written
// by one thread at a time, the thread that has it installed as its
// Registry() (sim::ShardEnv::Scope / ScopedMetricsRegistry, or the
// main thread for GlobalRegistry()). Ownership moves between threads
// only through util::ThreadPool's Submit/Wait, which orders the
// writes: ShardEnv() builds a shard's registry on the main thread, a
// pool worker writes it inside the job, and the main thread folds it
// after pool.Wait(). So every instrument is a plain integer, and an
// update is one add. The registry mutex guards only the name maps
// (instrument creation and snapshot); instrumented classes cache
// `Counter*` handles at construction so hot paths never pay a name
// lookup.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/stats.h"

namespace whodunit::obs {

// Monotonic event count.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t Value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

// Last-writer-wins instantaneous value (dictionary sizes, depths).
class Gauge {
 public:
  void Set(int64_t v) { value_ = v; }
  void Add(int64_t d) { value_ += d; }
  int64_t Value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  int64_t value_ = 0;
};

// Histogram recorder: a util::LogHistogram (values 0..7 exact, then 8
// sub-buckets per power of two). Snapshots and shard folds are exact,
// and quantiles are within the geometry's 12.5%.
class Histogram {
 public:
  void Observe(uint64_t value) { hist_.Add(value); }
  const util::LogHistogram& Snapshot() const { return hist_; }
  // Adds another histogram's buckets and sum (the shard-fold path).
  void Merge(const util::LogHistogram& other) { hist_.Merge(other); }
  void Reset() { hist_ = util::LogHistogram(); }

 private:
  util::LogHistogram hist_;
};

// Point-in-time merged view of every instrument in a registry.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, util::LogHistogram> histograms;
};

// Conservation laws between counters (docs/METRICS.md "Laws"). Returns
// one line per violated law, naming the law and the values that break
// it; empty when the snapshot is consistent. An absent instrument
// reads 0.
std::vector<std::string> CheckLaws(const MetricsSnapshot& snapshot);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Instruments live as long as the registry; returned references are
  // stable, so callers cache them at construction time.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;
  // Zeroes every instrument (between bench configurations, in tests).
  void Reset();

  // Deterministic fold of another registry's snapshot into this one:
  // counters and histogram buckets add, gauges add (a shard-parallel
  // run reports the sum over shards — docs/METRICS.md). Folding shard
  // snapshots in canonical shard order yields byte-identical exports
  // regardless of thread interleaving.
  void MergeFrom(const MetricsSnapshot& other);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// The registry every built-in instrumentation point uses: normally the
// process-wide one, but a shard isolate (sim::ShardEnv::Scope) can
// install a private registry for the calling thread so concurrent
// simulations never share mutable instruments.
MetricsRegistry& Registry();
// The process-wide default registry, regardless of any installed scope.
MetricsRegistry& GlobalRegistry();

// Installs `registry` as the calling thread's Registry() for the
// lifetime of the scope; restores the previous target on destruction.
class ScopedMetricsRegistry {
 public:
  explicit ScopedMetricsRegistry(MetricsRegistry& registry);
  ~ScopedMetricsRegistry();
  ScopedMetricsRegistry(const ScopedMetricsRegistry&) = delete;
  ScopedMetricsRegistry& operator=(const ScopedMetricsRegistry&) = delete;

 private:
  MetricsRegistry* prev_;
};

}  // namespace whodunit::obs

#endif  // SRC_OBS_METRICS_H_
