// Production sampling (docs/PRODUCTION.md): the per-transaction
// decision stream and the retention-bounded history store.
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/live/history.h"
#include "src/obs/metrics.h"
#include "src/profiler/sampling.h"

namespace whodunit {
namespace {

using obs::MetricsRegistry;
using obs::ScopedMetricsRegistry;
using obs::live::HistoryOptions;
using util::Syms;
using obs::live::TxnEvent;
using obs::live::TxnHistory;
using profiler::SamplingConfig;
using profiler::SamplingPolicy;

TEST(SamplingPolicyTest, DefaultRateSamplesEverything) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  SamplingPolicy policy;
  EXPECT_TRUE(policy.always_on());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(policy.Decide());
  }
}

TEST(SamplingPolicyTest, RateZeroSamplesNothing) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  SamplingPolicy policy;
  policy.Configure(SamplingConfig{0.0, 7});
  EXPECT_FALSE(policy.always_on());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(policy.Decide());
  }
}

TEST(SamplingPolicyTest, ObservedRateMatchesConfiguredRate) {
  // Binomial check: at rate p over n trials the observed fraction is
  // within 6 standard deviations of p (false-failure odds ~1e-9, and
  // the stream is deterministic anyway — this guards the threshold
  // arithmetic, not luck).
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  for (double rate : {0.5, 0.1, 0.01}) {
    SamplingPolicy policy;
    policy.Configure(SamplingConfig{rate, 42});
    const int n = 200000;
    int sampled = 0;
    for (int i = 0; i < n; ++i) {
      if (policy.Decide()) ++sampled;
    }
    const double observed = static_cast<double>(sampled) / n;
    const double sigma = std::sqrt(rate * (1.0 - rate) / n);
    EXPECT_NEAR(observed, rate, 6.0 * sigma) << "rate " << rate;
  }
}

TEST(SamplingPolicyTest, SameSeedReproducesDecisionStream) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  SamplingPolicy a, b;
  a.Configure(SamplingConfig{0.3, 99});
  b.Configure(SamplingConfig{0.3, 99});
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(a.Decide(), b.Decide()) << "decision " << i;
  }
}

TEST(SamplingPolicyTest, DifferentSeedsGiveDifferentStreams) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  SamplingPolicy a, b;
  a.Configure(SamplingConfig{0.5, 1});
  b.Configure(SamplingConfig{0.5, 2});
  int differing = 0;
  for (int i = 0; i < 10000; ++i) {
    if (a.Decide() != b.Decide()) ++differing;
  }
  EXPECT_GT(differing, 1000);
}

TEST(SamplingPolicyTest, CountersTrackDecisions) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  SamplingPolicy policy;
  policy.Configure(SamplingConfig{0.5, 5});
  uint64_t sampled = 0;
  for (int i = 0; i < 1000; ++i) {
    if (policy.Decide()) ++sampled;
  }
  EXPECT_EQ(policy.decisions(), 1000u);
  EXPECT_EQ(reg.GetCounter("sampling.txns_total").Value(), 1000u);
  EXPECT_EQ(reg.GetCounter("sampling.txns_sampled").Value(), sampled);
  EXPECT_GT(sampled, 0u);
  EXPECT_LT(sampled, 1000u);
}

// ---- TxnHistory ------------------------------------------------------

TxnEvent MakeEvent(uint64_t id, int64_t end_ns) {
  TxnEvent ev;
  ev.txn_id = id;
  ev.type = Syms().Intern("checkout");
  ev.origin_stage = Syms().Intern("squid");
  ev.start_ns = end_ns - 1000;
  ev.end_ns = end_ns;
  ev.spans.push_back({Syms().Intern("squid"), ev.start_ns, 1000, -1, 0});
  return ev;
}

TEST(TxnHistoryTest, FlushPromotesPendingOnInterval) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  TxnHistory history(HistoryOptions{1 << 20, 1000});
  history.Ingest(MakeEvent(1, 0), 0);
  // Pending until the flush interval elapses.
  EXPECT_EQ(history.retained_txns(), 0u);
  EXPECT_EQ(history.pending_txns(), 1u);
  history.Ingest(MakeEvent(2, 500), 500);
  EXPECT_EQ(history.retained_txns(), 0u);
  // This ingest crosses the interval and triggers the flush.
  history.Ingest(MakeEvent(3, 1500), 1500);
  EXPECT_EQ(history.retained_txns(), 3u);
  EXPECT_EQ(history.pending_txns(), 0u);
  EXPECT_EQ(history.flushes(), 1u);
  EXPECT_EQ(reg.GetCounter("history.txns_ingested").Value(), 3u);
}

TEST(TxnHistoryTest, EvictsOldestFirstToStayUnderBudget) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  const size_t per_event = TxnHistory::ApproxBytes(MakeEvent(0, 0));
  // Budget for roughly three records.
  TxnHistory history(HistoryOptions{per_event * 3 + per_event / 2, 100});
  for (int i = 0; i < 6; ++i) {
    history.Ingest(MakeEvent(static_cast<uint64_t>(i), i * 1000), i * 1000);
  }
  history.Flush(10000);
  EXPECT_LE(history.retained_bytes(), history.options().max_bytes);
  EXPECT_GT(history.evicted_txns(), 0u);
  // Survivors are the newest records, oldest first.
  const auto scan = history.Scan();
  ASSERT_FALSE(scan.empty());
  for (size_t i = 1; i < scan.size(); ++i) {
    EXPECT_LT(scan[i - 1]->txn_id, scan[i]->txn_id);
  }
  EXPECT_EQ(scan.back()->txn_id, 5u);
  EXPECT_EQ(reg.GetCounter("history.evicted_txns").Value(), history.evicted_txns());
}

TEST(TxnHistoryTest, BudgetIsASoftLimitBetweenFlushes) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  const size_t per_event = TxnHistory::ApproxBytes(MakeEvent(0, 0));
  // Budget for one record, long flush interval: pending accumulation
  // may exceed the budget until the next flush settles it.
  TxnHistory history(HistoryOptions{per_event, 1'000'000});
  for (int i = 0; i < 5; ++i) {
    history.Ingest(MakeEvent(static_cast<uint64_t>(i), i), i);
  }
  EXPECT_EQ(history.pending_txns(), 5u);
  history.Flush(10);
  EXPECT_LE(history.retained_bytes(), per_event);
  EXPECT_EQ(history.retained_txns(), 1u);
  EXPECT_EQ(history.Scan().back()->txn_id, 4u);
  EXPECT_EQ(history.evicted_txns(), 4u);
}

TEST(TxnHistoryTest, ZeroBudgetDisablesTheStore) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  TxnHistory history(HistoryOptions{0, 100});
  EXPECT_FALSE(history.enabled());
  history.Ingest(MakeEvent(1, 0), 0);
  history.Flush(1000);
  EXPECT_EQ(history.retained_txns(), 0u);
  EXPECT_EQ(history.pending_txns(), 0u);
}

TEST(TxnHistoryTest, ExportJsonListsRetainedOldestFirst) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  TxnHistory history(HistoryOptions{1 << 20, 100});
  history.Ingest(MakeEvent(7, 0), 0);
  history.Ingest(MakeEvent(8, 50), 50);
  history.Flush(200);
  const std::string json = history.ExportJson();
  EXPECT_NE(json.find("whodunit-history-v1"), std::string::npos);
  const size_t first = json.find("\"txn_id\":7");
  const size_t second = json.find("\"txn_id\":8");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
}

}  // namespace
}  // namespace whodunit
