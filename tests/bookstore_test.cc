// Integration tests for the TPC-W rig (paper §8.4, §9.1; Tables 1-2,
// Figures 11-12).
#include "src/apps/bookstore/bookstore.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/obs/metrics.h"

namespace whodunit::apps {
namespace {

using workload::TpcwTransaction;

BookstoreOptions SmallRun() {
  BookstoreOptions o;
  o.clients = 100;
  o.duration = sim::Seconds(600);
  o.warmup = sim::Seconds(120);
  o.seed = 5;
  return o;
}

const BookstorePerType& Row(const BookstoreResult& r, TpcwTransaction t) {
  return r.per_type[static_cast<size_t>(t)];
}

TEST(BookstoreTest, ServesBrowsingMix) {
  BookstoreResult r = RunBookstore(SmallRun());
  EXPECT_GT(r.interactions, 3000u);
  EXPECT_GT(r.throughput_tpm, 400.0);
  // Frequent interactions present in roughly mix proportion.
  EXPECT_GT(Row(r, TpcwTransaction::kHome).count, Row(r, TpcwTransaction::kBestSellers).count);
  EXPECT_GT(Row(r, TpcwTransaction::kBestSellers).count, 100u);
}

TEST(BookstoreTest, Table1CpuSharesShape) {
  // Table 1's regime: BestSellers and SearchResult dominate MySQL CPU
  // (paper: 51.50% and 43.28%), everything else is small.
  BookstoreResult r = RunBookstore(SmallRun());
  const double best = Row(r, TpcwTransaction::kBestSellers).db_cpu_percent;
  const double search = Row(r, TpcwTransaction::kSearchResult).db_cpu_percent;
  EXPECT_GT(best, 40.0);
  EXPECT_LT(best, 65.0);
  EXPECT_GT(search, 30.0);
  EXPECT_LT(search, 55.0);
  EXPECT_GT(best, search);
  EXPECT_GT(best + search, 85.0);
  EXPECT_LT(Row(r, TpcwTransaction::kHome).db_cpu_percent, 2.0);
  EXPECT_LT(Row(r, TpcwTransaction::kAdminRequest).db_cpu_percent, 0.1);
}

TEST(BookstoreTest, LabelDerivedSharesMatchGroundTruth) {
  // Whodunit derives per-transaction DB CPU from CCT labels; it must
  // agree with direct accounting (the whole point of the mechanism).
  BookstoreResult r = RunBookstore(SmallRun());
  for (int t = 0; t < workload::kTpcwTransactionCount; ++t) {
    const auto& row = r.per_type[static_cast<size_t>(t)];
    EXPECT_NEAR(row.db_cpu_percent, row.db_cpu_percent_ground, 2.5)
        << workload::TpcwName(static_cast<TpcwTransaction>(t));
  }
}

TEST(BookstoreTest, AdminConfirmHasWorstCrosstalk) {
  // Table 1: AdminConfirm's mean crosstalk wait (93.76 ms) is the
  // maximum across all transactions, caused by its exclusive lock on
  // the MyISAM item table.
  BookstoreOptions o = SmallRun();
  o.duration = sim::Seconds(2400);  // enough AdminConfirm instances
  BookstoreResult r = RunBookstore(o);
  const double admin = Row(r, TpcwTransaction::kAdminConfirm).mean_crosstalk_ms;
  EXPECT_GT(admin, 20.0);
  for (int t = 0; t < workload::kTpcwTransactionCount; ++t) {
    if (static_cast<TpcwTransaction>(t) == TpcwTransaction::kAdminConfirm) {
      continue;
    }
    EXPECT_GE(admin, r.per_type[static_cast<size_t>(t)].mean_crosstalk_ms)
        << workload::TpcwName(static_cast<TpcwTransaction>(t));
  }
  EXPECT_NE(r.crosstalk_text.find("AdminConfirm"), std::string::npos);
}

TEST(BookstoreTest, InnodbEliminatesAdminConfirmCrosstalk) {
  // Figure 11's mechanism: converting `item` to row locks removes
  // AdminConfirm's table-lock waits entirely (readers are MVCC).
  BookstoreOptions o = SmallRun();
  // AdminConfirm is 0.09% of the mix: a long run is needed before its
  // mean response time is statistically meaningful.
  o.duration = sim::Seconds(9600);
  BookstoreResult myisam = RunBookstore(o);
  o.item_granularity = db::LockGranularity::kRowLocks;
  BookstoreResult innodb = RunBookstore(o);
  EXPECT_LT(Row(innodb, TpcwTransaction::kAdminConfirm).mean_crosstalk_ms,
            Row(myisam, TpcwTransaction::kAdminConfirm).mean_crosstalk_ms * 0.2);
  // The paper measures a 640 ms -> 550 ms response-time win. In our
  // non-preemptive FIFO CPU model the lock-wait saving is partially
  // offset by losing MyISAM's incidental admission control (blocked
  // readers vacate the CPU queue), so the end-to-end latency effect is
  // within queueing noise — EXPERIMENTS.md records this as a known
  // deviation. Assert the response time does not materially regress.
  EXPECT_LT(Row(innodb, TpcwTransaction::kAdminConfirm).mean_response_ms,
            Row(myisam, TpcwTransaction::kAdminConfirm).mean_response_ms * 1.15);
}

TEST(BookstoreTest, CachingSlashesBestSellersResponse) {
  // Figure 11: result caching cuts BestSellers/SearchResult response
  // times dramatically.
  BookstoreOptions o = SmallRun();
  BookstoreResult plain = RunBookstore(o);
  o.servlet_caching = true;
  BookstoreResult cached = RunBookstore(o);
  EXPECT_LT(Row(cached, TpcwTransaction::kBestSellers).mean_response_ms,
            Row(plain, TpcwTransaction::kBestSellers).mean_response_ms * 0.5);
  EXPECT_LT(Row(cached, TpcwTransaction::kSearchResult).mean_response_ms,
            Row(plain, TpcwTransaction::kSearchResult).mean_response_ms * 0.5);
}

TEST(BookstoreTest, CachingLiftsSaturatedThroughput) {
  // Figure 12: at high client counts the no-cache configuration is
  // DB-bound; caching raises throughput by roughly 3x.
  BookstoreOptions o = SmallRun();
  o.clients = 450;
  BookstoreResult plain = RunBookstore(o);
  o.servlet_caching = true;
  BookstoreResult cached = RunBookstore(o);
  EXPECT_GT(cached.throughput_tpm, plain.throughput_tpm * 2.0);
  EXPECT_LT(cached.throughput_tpm, plain.throughput_tpm * 4.5);
}

TEST(BookstoreTest, ContextBytesAreSmallFractionOfData) {
  // §9.1: ~1% communication overhead (0.95 MB of synopses vs 92.52 MB
  // of application data).
  BookstoreResult r = RunBookstore(SmallRun());
  EXPECT_GT(r.context_bytes, 0u);
  EXPECT_LT(static_cast<double>(r.context_bytes),
            0.02 * static_cast<double>(r.payload_bytes));
}

TEST(BookstoreTest, ProfilerOverheadOrdering) {
  // Table 2: none >= csprof ~ whodunit >> gprof.
  BookstoreOptions o = SmallRun();
  o.clients = 300;  // saturated: throughput == capacity
  o.duration = sim::Seconds(900);
  o.mode = callpath::ProfilerMode::kNone;
  const double none = RunBookstore(o).throughput_tpm;
  o.mode = callpath::ProfilerMode::kCsprof;
  const double csprof = RunBookstore(o).throughput_tpm;
  o.mode = callpath::ProfilerMode::kWhodunit;
  const double whodunit = RunBookstore(o).throughput_tpm;
  o.mode = callpath::ProfilerMode::kGprof;
  const double gprof = RunBookstore(o).throughput_tpm;

  EXPECT_GE(none * 1.01, csprof);
  EXPECT_GE(csprof * 1.02, whodunit);  // Whodunit within a hair of csprof
  EXPECT_LT(gprof, none * 0.90);       // gprof clearly worse (paper: -24%)
  EXPECT_GT(gprof, none * 0.50);
}

TEST(BookstoreTest, NoProfilingMeansNoContextBytes) {
  BookstoreOptions o = SmallRun();
  o.mode = callpath::ProfilerMode::kNone;
  BookstoreResult r = RunBookstore(o);
  EXPECT_EQ(r.context_bytes, 0u);
  EXPECT_GT(r.interactions, 1000u);
}

TEST(BookstoreTest, StitcherConnectsAllThreeStages) {
  BookstoreResult r = RunBookstore(SmallRun());
  // The Figure 7-style stitched profile names all stages and recovers
  // request edges squid -> tomcat -> mysql.
  EXPECT_NE(r.stitched_text.find("stage 'squid'"), std::string::npos);
  EXPECT_NE(r.stitched_text.find("stage 'tomcat'"), std::string::npos);
  EXPECT_NE(r.stitched_text.find("stage 'mysql'"), std::string::npos);
  EXPECT_NE(r.stitched_text.find("squid (origin) --"), std::string::npos);
  EXPECT_NE(r.stitched_text.find("--> mysql"), std::string::npos);
  // And the Graphviz form is present.
  EXPECT_NE(r.stitched_dot.find("digraph whodunit"), std::string::npos);
  EXPECT_NE(r.stitched_dot.find("style=dashed"), std::string::npos);
}

// A Stitcher finds and counts its edges once and Render and RenderDot
// share them, so stitcher.edges_stitched equals the edge lines printed.
TEST(BookstoreTest, EdgeCounterMatchesPrintedEdges) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scope(reg);
  BookstoreOptions o;
  o.clients = 40;
  o.duration = sim::Seconds(120);
  o.warmup = sim::Seconds(10);
  BookstoreResult r = RunBookstore(o);
  const auto count_lines = [](const std::string& text, const std::string& after,
                              const std::string& needle) {
    std::istringstream lines(text);
    std::string line;
    bool counting = after.empty();
    uint64_t n = 0;
    while (std::getline(lines, line)) {
      if (!counting) {
        counting = line == after;
      } else if (line.find(needle) != std::string::npos) {
        ++n;
      }
    }
    return n;
  };
  const uint64_t text_edges =
      count_lines(r.stitched_text, "===== transaction flow edges =====", "-->");
  EXPECT_GT(text_edges, 0u);
  EXPECT_EQ(count_lines(r.stitched_dot, "", " -> "), text_edges);
  EXPECT_EQ(reg.GetCounter("stitcher.edges_stitched").Value(), text_edges);
}

TEST(BookstoreTest, MysqlSharedMemoryYieldsNoFlows) {
  // §8.1 inside the full rig: the flow detector watches the DB's own
  // critical sections during the profiled run. The shared counter and
  // the read/write row-buffer traffic must yield no transaction flow,
  // and the buffer resource is demoted once threads appear on both
  // role lists.
  BookstoreResult r = RunBookstore(SmallRun());
  EXPECT_EQ(r.db_shm_flows, 0u);
  EXPECT_TRUE(r.db_shared_state_demoted);
}

TEST(BookstoreTest, BottleneckMovesWithCaching) {
  // Figure 12's mechanism: without caching the DB CPU saturates; with
  // caching the database relaxes and the app server becomes the
  // constraint.
  BookstoreOptions o = SmallRun();
  o.clients = 400;
  o.duration = sim::Seconds(900);
  BookstoreResult plain = RunBookstore(o);
  EXPECT_GT(plain.db_utilization, 0.9);
  EXPECT_LT(plain.tomcat_utilization, 0.6);

  o.servlet_caching = true;
  BookstoreResult cached = RunBookstore(o);
  EXPECT_LT(cached.db_utilization, 0.6);
  EXPECT_GT(cached.tomcat_utilization, plain.tomcat_utilization * 1.5);
}

TEST(BookstoreTest, Deterministic) {
  BookstoreResult a = RunBookstore(SmallRun());
  BookstoreResult b = RunBookstore(SmallRun());
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_DOUBLE_EQ(a.throughput_tpm, b.throughput_tpm);
  EXPECT_DOUBLE_EQ(Row(a, TpcwTransaction::kBestSellers).db_cpu_percent,
                   Row(b, TpcwTransaction::kBestSellers).db_cpu_percent);
}

}  // namespace
}  // namespace whodunit::apps
