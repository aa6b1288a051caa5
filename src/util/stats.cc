#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

namespace whodunit::util {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void RunningStat::Merge(const RunningStat& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void SampleSet::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

double SampleSet::mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (double x : samples_) {
    s += x;
  }
  return s / static_cast<double>(samples_.size());
}

double SampleSet::Quantile(double q) const {
  if (samples_.empty()) {
    return 0.0;
  }
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const auto idx = static_cast<size_t>(q * static_cast<double>(samples_.size() - 1) + 0.5);
  return samples_[std::min(idx, samples_.size() - 1)];
}

LogHistogram::LogHistogram(const std::array<uint64_t, kBuckets>& buckets, uint64_t sum)
    : buckets_(buckets), sum_(sum) {
  for (uint64_t n : buckets_) {
    count_ += n;
  }
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (nearest-rank on the bucketed CDF).
  const double target = q * static_cast<double>(count_ - 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    const double first = static_cast<double>(seen);
    seen += buckets_[i];
    if (target < static_cast<double>(seen)) {
      // Interpolate between the bucket's bounds by the rank's position
      // inside the bucket; buckets 0..7 hold one value each.
      const double lo = static_cast<double>(BucketLowerBound(i));
      if (i < 8) {
        return lo;
      }
      const double hi = i + 1 < kBuckets ? static_cast<double>(BucketLowerBound(i + 1))
                                         : lo * 2.0;
      const double frac =
          buckets_[i] > 1 ? (target - first) / static_cast<double>(buckets_[i] - 1) : 0.5;
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
  }
  return static_cast<double>(BucketLowerBound(kBuckets - 1));
}

}  // namespace whodunit::util
