// Self-observability: metrics for the profiler's own machinery.
//
// Whodunit quantifies its overhead budgets from the outside (Tables
// 2-3, §9); this layer lets the reproduction watch itself from the
// inside: how many samples the sampler fired, how often the §3
// dictionary propagated a context, how many synopses were recognized
// as responses. Every subsystem registers named instruments here and
// a snapshot (merged across threads) is exported as JSON at bench
// exit — see docs/METRICS.md for the full catalog and schema.
//
// Design: instruments are lock-cheap. A Counter holds a small fixed
// array of cache-line-padded atomic shards; a thread picks its shard
// once (thread-local index) and updates it with a relaxed fetch_add —
// no mutex, no contention between simulator threads or test writer
// threads. A Histogram is two relaxed fetch_adds (bucket and sum).
// The registry mutex is touched only at instrument creation and at
// snapshot time. Instrumented classes cache `Counter*` handles at
// construction so hot paths never pay a name lookup.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/util/stats.h"

namespace whodunit::obs {

// Number of independent shards per Counter. Threads hash onto a
// shard; 16 is plenty for the simulator (single-threaded) and for the
// concurrency the tests exercise.
inline constexpr size_t kShards = 16;

namespace internal {
struct alignas(64) PaddedAtomic {
  std::atomic<uint64_t> v{0};
};
// Round-robin shard assignment state (defined in metrics.cc).
extern std::atomic<size_t> g_next_shard;
}  // namespace internal

// Index of the calling thread's shard, assigned round-robin on first
// use per thread. Inline: Counter::Add sits on per-instruction paths
// (the flow detector's hooks), where an out-of-line call per event is
// measurable.
inline size_t ThisThreadShard() {
  thread_local const size_t shard =
      internal::g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

// Monotonic event count.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    shards_[ThisThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const;
  void Reset();

 private:
  std::array<internal::PaddedAtomic, kShards> shards_;
};

// Last-writer-wins instantaneous value (dictionary sizes, depths).
// Gauges are updated rarely, so a single atomic suffices.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Histogram recorder over util::LogHistogram's geometry (values 0..7
// exact, then 8 sub-buckets per power of two). One relaxed atomic per
// bucket plus the running sum, unsharded; the count is the sum of the
// buckets, so a snapshot taken while writers run is still a
// self-consistent LogHistogram. Snapshots and shard folds are exact,
// and quantiles are within the geometry's 12.5%.
class Histogram {
 public:
  void Observe(uint64_t value) {
    buckets_[util::LogHistogram::BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  util::LogHistogram Snapshot() const;
  // Adds another histogram's buckets and sum (the shard-fold path).
  void Merge(const util::LogHistogram& other);
  void Reset();

 private:
  std::array<std::atomic<uint64_t>, util::LogHistogram::kBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

// Point-in-time merged view of every instrument in a registry.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, util::LogHistogram> histograms;
};

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
