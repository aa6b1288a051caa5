// Tests for the synthetic Rice-like web trace (paper §8, §9.2).
#include "src/workload/webtrace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "src/util/zipf.h"

namespace whodunit::workload {
namespace {

TEST(WebTraceTest, ConnectionLengthsHaveConfiguredMean) {
  WebTrace trace;
  util::Rng rng(101);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    total += static_cast<double>(trace.DrawConnection(rng).size());
  }
  EXPECT_NEAR(total / n, kRequestsPerConnectionMean, 0.3);
}

TEST(WebTraceTest, EveryConnectionHasAtLeastOneRequest) {
  WebTrace trace;
  util::Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GE(trace.DrawConnection(rng).size(), 1u);
  }
}

TEST(WebTraceTest, PopularitySkewed) {
  WebTrace trace;
  util::Rng rng(13);
  std::map<uint32_t, int> counts;
  int total = 0;
  for (int i = 0; i < 5000; ++i) {
    for (uint32_t obj : trace.DrawConnection(rng)) {
      ++counts[obj];
      ++total;
    }
  }
  // Top-100 objects (of 20,000) dominate a Zipf-0.85 stream.
  std::vector<int> sorted;
  sorted.reserve(counts.size());
  for (const auto& [obj, c] : counts) {
    sorted.push_back(c);
  }
  std::sort(sorted.rbegin(), sorted.rend());
  int top100 = 0;
  for (size_t i = 0; i < 100 && i < sorted.size(); ++i) {
    top100 += sorted[i];
  }
  EXPECT_GT(static_cast<double>(top100) / total, 0.25);
}

TEST(WebTraceTest, ObjectSizesHeavyTailed) {
  WebTrace trace;
  uint64_t max_seen = 0;
  double total = 0;
  const uint32_t n = 20000;
  for (uint32_t obj = 0; obj < n; ++obj) {
    const uint64_t bytes = trace.ObjectBytes(obj);
    EXPECT_GE(bytes, kTraceMinObjectBytes);
    EXPECT_LE(bytes, kTraceMaxObjectBytes);
    max_seen = std::max(max_seen, bytes);
    total += static_cast<double>(bytes);
  }
  const double mean = total / n;
  // Heavy tail: the max object is far above the mean.
  EXPECT_GT(static_cast<double>(max_seen), 20 * mean);
  // But the mean stays in the "typical web object" range.
  EXPECT_GT(mean, 2000);
  EXPECT_LT(mean, 50000);
}

TEST(WebTraceTest, SizesDeterministicPerObject) {
  WebTrace a, b;
  for (uint32_t obj : {0u, 1u, 99u, 19999u}) {
    EXPECT_EQ(a.ObjectBytes(obj), b.ObjectBytes(obj));
  }
}

TEST(WebTraceTest, DrawsDeterministicForSeed) {
  WebTrace trace;
  util::Rng r1(5), r2(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(trace.DrawConnection(r1), trace.DrawConnection(r2));
  }
}

TEST(WebTraceTest, CustomModelRespected) {
  WebTraceModel model;
  model.objects = 10;
  model.requests_per_connection_mean = 2;
  WebTrace trace(model);
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    for (uint32_t obj : trace.DrawConnection(rng)) {
      EXPECT_LT(obj, 10u);
    }
  }
}

// The rank the plain binary search over the whole CDF returns: what
// ZipfSampler::Sample computed before it had a bucket index.
uint64_t PlainRank(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return it == cdf.end() ? cdf.size() - 1 : static_cast<uint64_t>(it - cdf.begin());
}

// Random draws, every bucket edge and its neighbours, and every CDF
// value and its neighbours all map as the plain search maps them.
void ExpectMatchesPlainSearch(const util::ZipfSampler& zipf, int draws) {
  const std::vector<double>& cdf = zipf.cdf();
  util::Rng rng(2027);
  for (int i = 0; i < draws; ++i) {
    const double u = rng.NextDouble();
    ASSERT_EQ(zipf.RankOf(u), PlainRank(cdf, u)) << "u=" << u;
  }
  std::vector<double> probes;
  const size_t buckets = zipf.bucket_count();
  for (size_t b = 0; b <= buckets; ++b) {
    probes.push_back(static_cast<double>(b) / static_cast<double>(buckets));
  }
  probes.insert(probes.end(), cdf.begin(), cdf.end());
  for (const double p : probes) {
    for (const double u : {std::nextafter(p, 0.0), p, std::nextafter(p, 2.0)}) {
      ASSERT_EQ(zipf.RankOf(u), PlainRank(cdf, u)) << "u=" << u;
    }
  }
}

// The bucket index must change how a rank is found, never which rank.
TEST(WebTraceTest, ZipfBucketIndexMatchesPlainSearch) {
  const util::ZipfSampler trace_zipf(kTraceObjects, kTraceZipfTheta);
  ASSERT_EQ(trace_zipf.cdf().size(), kTraceObjects);
  ExpectMatchesPlainSearch(trace_zipf, 1000000);
  // Uniform universes put CDF values exactly on bucket edges.
  for (const uint64_t n : {1u, 3u, 4u, 8u, 1000u}) {
    ExpectMatchesPlainSearch(util::ZipfSampler(n, 0.0), 10000);
    ExpectMatchesPlainSearch(util::ZipfSampler(n, 1.0), 10000);
  }
}

// Draw for draw, Sample is the plain search applied to the Rng's next
// double.
TEST(WebTraceTest, ZipfSampleConsumesOneDrawPerRank) {
  const util::ZipfSampler zipf(kTraceObjects, kTraceZipfTheta);
  util::Rng a(11), b(11);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(zipf.Sample(a), PlainRank(zipf.cdf(), b.NextDouble()));
  }
}

// The precomputed object sizes are the per-call expression's values.
TEST(WebTraceTest, PrecomputedSizesMatchFormula) {
  const WebTrace trace;
  const auto formula = [](uint32_t id) {
    uint64_t x = id + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
    double size = static_cast<double>(kTraceMinObjectBytes) / std::pow(1.0 - u, 1.0 / 1.2);
    size = std::min(size, static_cast<double>(kTraceMaxObjectBytes));
    return static_cast<uint64_t>(size);
  };
  for (uint32_t id = 0; id < kTraceObjects; ++id) {
    ASSERT_EQ(trace.ObjectBytes(id), formula(id)) << "object " << id;
  }
}

}  // namespace
}  // namespace whodunit::workload
