// Streaming statistics used by the experiment harnesses.
#ifndef SRC_UTIL_STATS_H_
#define SRC_UTIL_STATS_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace whodunit::util {

// Welford-style running mean/variance with min/max tracking.
// Numerically stable for the long accumulation runs the benchmarks do.
class RunningStat {
 public:
  void Add(double x);

  uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;  // sample variance; 0 if count < 2
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  // Merges another accumulator into this one (parallel-merge formula).
  void Merge(const RunningStat& other);

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Retains every sample; offers exact quantiles. Used for response-time
// distributions where the harness reports medians/percentiles.
class SampleSet {
 public:
  void Add(double x);

  uint64_t count() const { return samples_.size(); }
  double mean() const;
  // q in [0, 1]; nearest-rank quantile. Returns 0 when empty.
  double Quantile(double q) const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Log-bucketed streaming histogram with a quantile API: the one
// histogram geometry of the repo.
//
// Buckets have a fixed global geometry (values 0..7 exact, then 8
// sub-buckets per power of two), so two histograms are mergeable by
// adding counts bucket-wise — the property the live aggregation
// daemon (src/obs/live) and the metrics registry's shard fold rely on
// to combine state without retaining samples. Relative quantile error
// is bounded by the sub-bucket width, 12.5%.
class LogHistogram {
 public:
  // 0..7 exact, plus 8 sub-buckets for each leading-bit position 3..63.
  static constexpr size_t kBuckets = 8 + 61 * 8;

  LogHistogram() = default;
  // Rebuilds a histogram from per-bucket counts (indices follow
  // BucketLowerBound) and the sum of the values they counted; count()
  // is the sum of the buckets.
  LogHistogram(const std::array<uint64_t, kBuckets>& buckets, uint64_t sum);

  // Bucket index of a value; fixed geometry shared by all instances.
  static constexpr size_t BucketOf(uint64_t v) {
    if (v < 8) {
      return static_cast<size_t>(v);
    }
    const int octave = 63 - std::countl_zero(v);
    const uint64_t sub = (v >> (octave - 3)) & 7;
    return 8 + static_cast<size_t>(octave - 3) * 8 + static_cast<size_t>(sub);
  }

  // Smallest value mapping to bucket `i`.
  static constexpr uint64_t BucketLowerBound(size_t i) {
    if (i < 8) {
      return i;
    }
    const uint64_t octave = 3 + (i - 8) / 8;
    const uint64_t sub = (i - 8) % 8;
    return (8 + sub) << (octave - 3);
  }

  void Add(uint64_t v, uint64_t n = 1) {
    buckets_[BucketOf(v)] += n;
    count_ += n;
    sum_ += v * n;
  }

  // Adds the other histogram's counts into this one. Exact: the bucket
  // geometry is global, so merging loses nothing beyond what bucketing
  // already lost.
  void Merge(const LogHistogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }

  // q in [0, 1]; returns an estimate of the q-quantile: the value is
  // linearly interpolated inside the bucket holding the target rank.
  // Returns 0 when empty.
  double Quantile(double q) const;

  // Per-bucket counts for export; indices follow BucketLowerBound.
  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }

  friend bool operator==(const LogHistogram&, const LogHistogram&) = default;

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

}  // namespace whodunit::util

#endif  // SRC_UTIL_STATS_H_
