#include "src/util/zipf.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace whodunit::util {

ZipfSampler::ZipfSampler(uint64_t n, double theta) {
  cdf_.resize(n);
  double acc = 0.0;
  for (uint64_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cdf_[k] = acc;
  }
  for (auto& v : cdf_) {
    v /= acc;
  }
  const size_t buckets = std::bit_ceil(static_cast<size_t>(n));
  bucket_start_.resize(buckets + 1);
  size_t rank = 0;
  for (size_t b = 0; b < buckets; ++b) {
    const double edge = static_cast<double>(b) / static_cast<double>(buckets);
    while (rank < n && cdf_[rank] < edge) {
      ++rank;
    }
    bucket_start_[b] = static_cast<uint32_t>(rank);
  }
  bucket_start_[buckets] = static_cast<uint32_t>(n);
}

uint64_t ZipfSampler::RankOf(double u) const {
  const size_t buckets = bucket_count();
  const size_t b =
      std::min(static_cast<size_t>(u * static_cast<double>(buckets)), buckets - 1);
  const auto first = cdf_.begin() + bucket_start_[b];
  const auto last = cdf_.begin() + bucket_start_[b + 1];
  const auto it = std::lower_bound(first, last, u);
  if (it == cdf_.end()) {
    return cdf_.size() - 1;
  }
  return static_cast<uint64_t>(it - cdf_.begin());
}

}  // namespace whodunit::util
