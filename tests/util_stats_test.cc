#include "src/util/stats.h"

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace whodunit::util {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStatTest, SingleValue) {
  RunningStat s;
  s.Add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 4.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 4.0);
  EXPECT_EQ(s.max(), 4.0);
}

TEST(RunningStatTest, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  RunningStat all, a, b;
  for (int i = 0; i < 100; ++i) {
    double x = i * 0.37 - 5;
    all.Add(x);
    (i < 40 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStatTest, MergeWithEmpty) {
  RunningStat a, b;
  a.Add(1.0);
  a.Add(3.0);
  RunningStat before = a;
  a.Merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), before.mean());
  b.Merge(a);  // copy
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(SampleSetTest, QuantilesExact) {
  SampleSet s;
  for (int i = 10; i >= 1; --i) {
    s.Add(i);
  }
  EXPECT_EQ(s.count(), 10u);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 6.0);  // nearest rank of 4.5 -> index 5
  EXPECT_DOUBLE_EQ(s.mean(), 5.5);
}

TEST(SampleSetTest, EmptyQuantileIsZero) {
  SampleSet s;
  EXPECT_EQ(s.Quantile(0.5), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(SampleSetTest, AddAfterQuantileResorts) {
  SampleSet s;
  s.Add(5.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 5.0);
  s.Add(9.0);
  s.Add(1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 9.0);
}

TEST(LogHistogramTest, EmptyIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(LogHistogramTest, SmallValuesAreExact) {
  LogHistogram h;
  for (uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(LogHistogram::BucketOf(v), v);
    EXPECT_EQ(LogHistogram::BucketLowerBound(v), v);
    h.Add(v);
  }
  EXPECT_EQ(h.count(), 8u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.5);
  // Buckets 0..7 hold one value each, so their quantiles are exact.
  LogHistogram ones;
  ones.Add(1, 30);
  EXPECT_EQ(ones.Quantile(0.5), 1.0);
  EXPECT_EQ(ones.Quantile(0.99), 1.0);
}

TEST(LogHistogramTest, BucketGeometryIsMonotone) {
  // Lower bounds strictly increase and every value maps into the
  // bucket whose range contains it.
  for (size_t i = 1; i < LogHistogram::kBuckets; ++i) {
    EXPECT_LT(LogHistogram::BucketLowerBound(i - 1),
              LogHistogram::BucketLowerBound(i))
        << "bucket " << i;
  }
  for (size_t i = 0; i + 1 < LogHistogram::kBuckets; ++i) {
    const uint64_t lo = LogHistogram::BucketLowerBound(i);
    EXPECT_EQ(LogHistogram::BucketOf(lo), i);
    EXPECT_EQ(LogHistogram::BucketOf(LogHistogram::BucketLowerBound(i + 1) - 1),
              i);
  }
}

TEST(LogHistogramTest, QuantileErrorIsBounded) {
  // Against the exact SampleSet on a heavy-tailed stream: the
  // sub-bucket geometry bounds relative error at 12.5% (plus
  // interpolation slack — allow 15%).
  LogHistogram h;
  SampleSet exact;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = 100 + (rng.NextU64() % 1000) * (rng.NextU64() % 1000);
    h.Add(v);
    exact.Add(static_cast<double>(v));
  }
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double want = exact.Quantile(q);
    const double got = h.Quantile(q);
    EXPECT_NEAR(got, want, want * 0.15) << "q=" << q;
  }
}

TEST(LogHistogramTest, MergeOfHalvesMatchesWhole) {
  LogHistogram whole, a, b;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.NextU64() % 1000000;
    whole.Add(v);
    (i % 2 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_EQ(a.sum(), whole.sum());
  EXPECT_EQ(a.buckets(), whole.buckets());
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), whole.Quantile(0.5));
  EXPECT_DOUBLE_EQ(a.Quantile(0.99), whole.Quantile(0.99));
  // The p99.9 the live top table reports must survive shard merging
  // the same way: merge-then-quantile equals whole-population quantile.
  EXPECT_DOUBLE_EQ(a.Quantile(0.999), whole.Quantile(0.999));
}

TEST(LogHistogramTest, TailQuantileSeparatesOutliers) {
  // 995 fast samples and five 100x outliers: p99.9 must land in the
  // outlier bucket while p50/p99 stay at the bulk — the property the
  // --why-tail cohort split depends on.
  LogHistogram h;
  for (int i = 0; i < 995; ++i) {
    h.Add(1000);
  }
  h.Add(100000, 5);
  EXPECT_LT(h.Quantile(0.99), 2000.0);
  EXPECT_GT(h.Quantile(0.999), 50000.0);
}

TEST(LogHistogramTest, WeightedAdd) {
  LogHistogram h;
  h.Add(100, 7);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 700u);
  // All mass in one bucket: every quantile lands inside its range.
  const size_t idx = LogHistogram::BucketOf(100);
  EXPECT_GE(h.Quantile(0.5), LogHistogram::BucketLowerBound(idx));
  EXPECT_LE(h.Quantile(0.5), LogHistogram::BucketLowerBound(idx + 1));
}

}  // namespace
}  // namespace whodunit::util
