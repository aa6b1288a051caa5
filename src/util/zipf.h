// Zipf-distributed sampling over a fixed universe of n items.
//
// Web object popularity (the Rice trace) and TPC-W item popularity are
// both well-modelled by Zipf-like distributions; the skew is what makes
// the proxy/servlet caches in the reproduced experiments effective.
#ifndef SRC_UTIL_ZIPF_H_
#define SRC_UTIL_ZIPF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/rng.h"

namespace whodunit::util {

// Samples ranks in [0, n) with P(rank k) proportional to 1/(k+1)^theta.
//
// Inverts a precomputed CDF: a draw u maps to the first rank whose CDF
// is >= u, exactly what std::lower_bound over the CDF returns. A bucket
// index over [0, 1) narrows the search first: with B buckets (B the
// power of two >= n), bucket b = floor(u * B) holds the draw, and its
// answer lies between the ranks where the CDF crosses b / B and
// (b + 1) / B. B is a power of two, so u * B and b / B are exact and
// the narrowed search returns the same rank as the full one. On
// average a bucket spans at most one CDF entry, so a draw costs O(1)
// expected probes instead of log2(n). O(n) setup, exact (no
// rejection), deterministic given the Rng.
class ZipfSampler {
 public:
  // n must be >= 1; theta >= 0 (0 degenerates to uniform).
  ZipfSampler(uint64_t n, double theta);

  // Draws a rank in [0, n); rank 0 is the most popular item.
  uint64_t Sample(Rng& rng) const { return RankOf(rng.NextDouble()); }

  // The rank a uniform draw u >= 0 maps to (n - 1 when u exceeds the
  // whole CDF).
  uint64_t RankOf(double u) const;

  uint64_t universe_size() const { return cdf_.size(); }
  const std::vector<double>& cdf() const { return cdf_; }
  size_t bucket_count() const { return bucket_start_.size() - 1; }

 private:
  std::vector<double> cdf_;
  // bucket_start_[b]: the first rank whose CDF is >= b / B;
  // bucket_start_[B] = n.
  std::vector<uint32_t> bucket_start_;
};

}  // namespace whodunit::util

#endif  // SRC_UTIL_ZIPF_H_
