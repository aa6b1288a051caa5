// Tests for the self-observability layer (src/obs): instrument
// correctness, snapshot folding across shard registries, the counter
// laws, and the JSON export round trip and its parser's rejection of
// malformed dumps. Registries are single-writer (src/obs/metrics.h);
// shard_invariance_test runs the real writers on pool threads.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace whodunit::obs {
namespace {

// A counter is one plain integer, not a striped array of atomics.
static_assert(sizeof(Counter) == sizeof(uint64_t));

TEST(CounterTest, SingleThreadedAdds) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("test.counter");
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, SameNameSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("test.counter");
  Counter& b = reg.GetCounter("test.counter");
  EXPECT_EQ(&a, &b);
}

TEST(GaugeTest, SetAndAdd) {
  MetricsRegistry reg;
  Gauge& g = reg.GetGauge("test.gauge");
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
}

TEST(HistogramTest, BucketAssignment) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("test.hist");
  const std::vector<uint64_t> values = {0, 5, 10, 11, 1000, 5000, 3'000'000'000};
  for (uint64_t v : values) {
    h.Observe(v);
  }
  const util::LogHistogram snap = h.Snapshot();
  EXPECT_EQ(snap.count(), values.size());
  EXPECT_EQ(snap.sum(), 0u + 5 + 10 + 11 + 1000 + 5000 + 3'000'000'000);
  for (uint64_t v : values) {
    EXPECT_EQ(snap.buckets()[util::LogHistogram::BucketOf(v)], 1u) << v;
  }
  h.Reset();
  EXPECT_EQ(h.Snapshot(), util::LogHistogram());
}

// A registry histogram is util::LogHistogram's geometry end to end:
// quantiles stay within its 12.5% bound above 1 s (where fixed 1 us..1 s
// bounds clamped every value to 1 s), the JSON round trip keeps every
// bucket, and folding two registries' snapshots equals one registry
// fed both streams, bucket for bucket.
TEST(HistogramTest, QuantilesJsonAndMergeMatchOneGeometry) {
  MetricsRegistry whole;
  MetricsRegistry even;
  MetricsRegistry odd;
  util::SampleSet exact;
  util::Rng rng(23);
  for (int i = 0; i < 20'000; ++i) {
    // Log-uniform over 1 us .. ~17 s, so a tenth of the mass is above 1 s.
    const double exponent = 3.0 + 7.25 * rng.NextDouble();
    const auto v = static_cast<uint64_t>(std::pow(10.0, exponent));
    whole.GetHistogram("lat_ns").Observe(v);
    (i % 2 == 0 ? even : odd).GetHistogram("lat_ns").Observe(v);
    exact.Add(static_cast<double>(v));
  }
  const MetricsSnapshot snap = whole.Snapshot();
  const util::LogHistogram& h = snap.histograms.at("lat_ns");
  ASSERT_EQ(h.count(), exact.count());
  ASSERT_GT(exact.Quantile(0.99), 1e9);
  for (double q : {0.5, 0.99}) {
    EXPECT_NEAR(h.Quantile(q), exact.Quantile(q), exact.Quantile(q) * 0.125) << "q=" << q;
  }

  MetricsSnapshot parsed;
  ASSERT_TRUE(ParseJson(ToJson(snap), &parsed));
  EXPECT_EQ(parsed.histograms.at("lat_ns"), h);

  MetricsRegistry folded;
  folded.MergeFrom(even.Snapshot());
  folded.MergeFrom(odd.Snapshot());
  EXPECT_EQ(folded.Snapshot().histograms.at("lat_ns"), h);
}

TEST(SnapshotTest, MergesAllInstrumentKinds) {
  MetricsRegistry reg;
  reg.GetCounter("c.one").Add(7);
  reg.GetGauge("g.one").Set(-5);
  reg.GetHistogram("h.one").Observe(42);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("c.one"), 7u);
  EXPECT_EQ(snap.gauges.at("g.one"), -5);
  EXPECT_EQ(snap.histograms.at("h.one").count(), 1u);
  EXPECT_EQ(snap.histograms.at("h.one").sum(), 42u);

  reg.Reset();
  snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("c.one"), 0u);
  EXPECT_EQ(snap.gauges.at("g.one"), 0);
  EXPECT_EQ(snap.histograms.at("h.one").count(), 0u);
}

// The shape of a finished run: every law holds.
MetricsSnapshot LawfulSnapshot() {
  MetricsSnapshot s;
  s.counters = {{"sim.events_scheduled", 100},   {"sim.events_executed", 90},
                {"sampling.txns_total", 50},     {"sampling.txns_sampled", 5},
                {"shm.section_cache.hits", 30},  {"shm.section_cache.misses", 2},
                {"shm.critical_sections", 40},   {"live.txns_begun", 20},
                {"live.txns_published", 15},     {"live.txns_abandoned", 2},
                {"live.txns_ingested", 15}};
  s.gauges = {{"live.inflight_txns", 3}};
  return s;
}

TEST(LawsTest, LawfulAndEmptySnapshotsPass) {
  EXPECT_TRUE(CheckLaws(LawfulSnapshot()).empty());
  EXPECT_TRUE(CheckLaws(MetricsSnapshot{}).empty());
}

TEST(LawsTest, EachBrokenLawIsReportedByName) {
  struct Case {
    const char* law;
    void (*breaks)(MetricsSnapshot&);
  };
  const Case cases[] = {
      {"sim.events_executed <= sim.events_scheduled",
       [](MetricsSnapshot& s) { s.counters["sim.events_executed"] = 101; }},
      {"sim.events_executed <= sim.events_scheduled",
       [](MetricsSnapshot& s) { s.counters.erase("sim.events_scheduled"); }},
      {"sampling.txns_sampled <= sampling.txns_total",
       [](MetricsSnapshot& s) { s.counters["sampling.txns_sampled"] = 51; }},
      {"shm.section_cache.hits + misses <= shm.critical_sections",
       [](MetricsSnapshot& s) { s.counters["shm.section_cache.hits"] = 39; }},
      // A detector whose section count lags its cache's lookups.
      {"shm.section_cache.hits + misses <= shm.critical_sections",
       [](MetricsSnapshot& s) { s.counters["shm.critical_sections"] = 0; }},
      {"live.txns_begun == live.txns_published + live.txns_abandoned + live.inflight_txns",
       [](MetricsSnapshot& s) { s.counters["live.txns_begun"] = 21; }},
      {"live.txns_begun == live.txns_published + live.txns_abandoned + live.inflight_txns",
       [](MetricsSnapshot& s) { s.gauges["live.inflight_txns"] = 4; }},
      {"live.txns_begun == live.txns_published + live.txns_abandoned + live.inflight_txns",
       [](MetricsSnapshot& s) { s.gauges["live.inflight_txns"] = -3; }},
      {"live.txns_ingested == live.txns_published",
       [](MetricsSnapshot& s) { s.counters["live.txns_ingested"] = 14; }},
  };
  for (const Case& c : cases) {
    MetricsSnapshot snapshot = LawfulSnapshot();
    c.breaks(snapshot);
    const std::vector<std::string> violated = CheckLaws(snapshot);
    ASSERT_EQ(violated.size(), 1u) << c.law;
    EXPECT_EQ(violated[0].rfind(c.law, 0), 0u) << violated[0];
  }
}

TEST(LawsTest, DumpWritesButFailsOnAViolation) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  reg.GetCounter("sim.events_scheduled").Add(1);
  const std::string path = testing::TempDir() + "obs_test_laws.metrics.json";
  EXPECT_TRUE(DumpGlobalMetrics(path));
  reg.GetCounter("sim.events_executed").Add(2);
  EXPECT_FALSE(DumpGlobalMetrics(path));
  std::ifstream in(path);
  std::stringstream json;
  json << in.rdbuf();
  MetricsSnapshot dumped;
  ASSERT_TRUE(ParseJson(json.str(), &dumped));
  EXPECT_EQ(dumped.counters.at("sim.events_executed"), 2u);
  std::remove(path.c_str());
}

// Replaces the one occurrence of `from` in `s` with `to`.
std::string ReplaceOnce(std::string s, const std::string& from, const std::string& to) {
  const size_t at = s.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return at == std::string::npos ? s : s.replace(at, from.size(), to);
}

TEST(ExportTest, JsonRoundTrip) {
  MetricsRegistry reg;
  reg.GetCounter("shm.flows_detected").Add(12);
  reg.GetCounter("sampler.samples_taken").Add(34);
  reg.GetCounter("name \"quoted\"\n\x01").Add(UINT64_MAX);
  reg.GetGauge("shm.dict_size").Set(-1);
  reg.GetGauge("g.min").Set(INT64_MIN);
  Histogram& h = reg.GetHistogram("events.handler_ns");
  h.Observe(5);
  h.Observe(50);
  h.Observe(500);
  const std::string json = ToJson(reg.Snapshot());
  // Non-zero buckets keyed by their lower bounds: 5 is exact, 50 and
  // 500 fall in [48, 52) and [480, 512).
  EXPECT_NE(json.find("{\"count\": 3, \"sum\": 555, \"buckets\": {\"5\": 1, \"48\": 1, "
                      "\"480\": 1}}"),
            std::string::npos)
      << json;

  MetricsSnapshot parsed;
  ASSERT_TRUE(ParseJson(json, &parsed));
  EXPECT_EQ(parsed.counters.at("shm.flows_detected"), 12u);
  EXPECT_EQ(parsed.counters.at("sampler.samples_taken"), 34u);
  EXPECT_EQ(parsed.counters.at("name \"quoted\"\n\x01"), UINT64_MAX);
  EXPECT_EQ(parsed.gauges.at("shm.dict_size"), -1);
  EXPECT_EQ(parsed.gauges.at("g.min"), INT64_MIN);
  EXPECT_EQ(parsed.histograms.at("events.handler_ns"), h.Snapshot());
  // Re-serializing the parsed snapshot reproduces the same bytes.
  EXPECT_EQ(ToJson(parsed), json);

  const std::string tail = "\n  }\n}\n";  // closes "histograms" and the document
  struct Case {
    const char* what;
    std::string input;
  };
  std::vector<Case> malformed = {
      {"v1 dump with spans",
       ReplaceOnce(ReplaceOnce(json, "\"version\": 3", "\"version\": 1"), tail,
                   "\n  },\n  \"spans\": [\n    {\"name\": \"events.handler\", \"detail\": "
                   "\"h\", \"ctxt_hash\": 7, \"start_ns\": 100, \"duration_ns\": 42}\n  ]\n}\n")},
      {"v3 dump with spans", ReplaceOnce(json, tail, "\n  },\n  \"spans\": []\n}\n")},
      {"v2 dump",
       ReplaceOnce(ReplaceOnce(json, "\"version\": 3", "\"version\": 2"),
                   "{\"count\": 3, \"sum\": 555, \"buckets\": {\"5\": 1, \"48\": 1, \"480\": 1}}",
                   "{\"bounds\": [10, 100], \"counts\": [1, 1, 1], \"count\": 3, \"sum\": 555}")},
      {"v3 buckets under version 2", ReplaceOnce(json, "\"version\": 3", "\"version\": 2")},
      {"v2 histogram under version 3",
       ReplaceOnce(json, "\"buckets\": {\"5\": 1, \"48\": 1, \"480\": 1}",
                   "\"bounds\": [10, 100], \"counts\": [1, 1, 1]")},
      {"wrong schema", ReplaceOnce(json, "whodunit-metrics", "whodunit-bench")},
      {"unknown key", ReplaceOnce(json, "\"counters\"", "\"extra\": {},\n  \"counters\"")},
      {"unknown histogram key", ReplaceOnce(json, "\"sum\"", "\"mean\": 1, \"sum\"")},
      {"duplicate histogram key", ReplaceOnce(json, "\"sum\"", "\"count\": 3, \"sum\"")},
      {"histogram without buckets", ReplaceOnce(json, ", \"buckets\": {\"5\": 1, \"48\": 1, "
                                                      "\"480\": 1}", "")},
      {"histogram without count", ReplaceOnce(json, "\"count\": 3, ", "")},
      {"bucket key not a lower bound", ReplaceOnce(json, "\"48\": 1", "\"49\": 1")},
      {"bucket key with a leading zero", ReplaceOnce(json, "\"48\": 1", "\"048\": 1")},
      {"negative bucket key", ReplaceOnce(json, "\"48\": 1", "\"-48\": 1")},
      {"empty bucket key", ReplaceOnce(json, "\"48\": 1", "\"\": 1")},
      {"bucket key above UINT64_MAX",
       ReplaceOnce(json, "\"480\": 1", "\"100000000000000000000\": 1")},
      {"buckets out of order", ReplaceOnce(json, "\"5\": 1, \"48\": 1", "\"48\": 1, \"5\": 1")},
      {"duplicate bucket", ReplaceOnce(json, "\"48\": 1", "\"48\": 1, \"48\": 1")},
      {"zero-count bucket", ReplaceOnce(json, "\"48\": 1", "\"48\": 1, \"64\": 0")},
      {"buckets sum above count", ReplaceOnce(json, "\"480\": 1", "\"480\": 2")},
      {"buckets sum below count", ReplaceOnce(json, "\"count\": 3", "\"count\": 4")},
      {"buckets sum wraps around to count",
       ReplaceOnce(json, "\"5\": 1, \"48\": 1, \"480\": 1",
                   "\"5\": 18446744073709551615, \"48\": 3, \"480\": 1")},
      {"bucket count above UINT64_MAX", ReplaceOnce(json, "\"480\": 1", "\"480\": 18446744073709551616")},
      {"unterminated string", "{\"schema\": \"whodunit-metrics"},
      {"unterminated escape", "{\"schema\": \"whodunit-metrics\\u00"},
      {"counter above UINT64_MAX",
       ReplaceOnce(json, "18446744073709551615", "18446744073709551616")},
      {"counter far above UINT64_MAX",
       ReplaceOnce(json, "18446744073709551615", "99999999999999999999999")},
      {"gauge below INT64_MIN",
       ReplaceOnce(json, "-9223372036854775808", "-9223372036854775809")},
      {"gauge above INT64_MAX", ReplaceOnce(json, "\": -1", "\": 9223372036854775808")},
  };
  // Every prefix that cuts into the document (everything but the
  // trailing newline) is a truncated dump.
  for (size_t n = 0; n < json.size() - 1; ++n) {
    malformed.push_back({"truncated", json.substr(0, n)});
  }
  for (const Case& c : malformed) {
    MetricsSnapshot out;
    EXPECT_FALSE(ParseJson(c.input, &out)) << c.what << ":\n" << c.input;
  }
}

TEST(ExportTest, EmptySnapshotRoundTrip) {
  MetricsSnapshot empty;
  const std::string json = ToJson(empty);
  MetricsSnapshot parsed;
  EXPECT_TRUE(ParseJson(json, &parsed));
  EXPECT_TRUE(parsed.counters.empty());
  EXPECT_TRUE(parsed.gauges.empty());
  EXPECT_TRUE(parsed.histograms.empty());
}

TEST(ExportTest, RejectsMalformedInput) {
  MetricsSnapshot out;
  EXPECT_FALSE(ParseJson("", &out));
  EXPECT_FALSE(ParseJson("{}", &out));  // missing version
  EXPECT_FALSE(ParseJson("{\"schema\": \"other\", \"version\": 3}", &out));
  EXPECT_FALSE(ParseJson("{\"schema\": \"whodunit-metrics\", \"version\": 1}", &out));
  EXPECT_FALSE(ParseJson("{\"schema\": \"whodunit-metrics\", \"version\": 2}", &out));
  EXPECT_FALSE(ParseJson("{\"schema\": \"whodunit-metrics\", \"version\": 4}", &out));
  EXPECT_FALSE(
      ParseJson("{\"schema\": \"whodunit-metrics\", \"version\": 3, \"counters\": {\"x\": }}",
                &out));
  EXPECT_FALSE(ParseJson(
      "{\"schema\": \"whodunit-metrics\", \"version\": 3, \"histograms\": {\"h\": {}}}", &out));
}

TEST(ExportTest, RenderTextMentionsEveryInstrument) {
  MetricsRegistry reg;
  reg.GetCounter("a.counter").Add(1);
  reg.GetGauge("a.gauge").Set(2);
  reg.GetHistogram("a.hist").Observe(3);
  const std::string text = RenderText(reg.Snapshot());
  EXPECT_NE(text.find("a.counter"), std::string::npos);
  EXPECT_NE(text.find("a.gauge"), std::string::npos);
  EXPECT_NE(text.find("a.hist"), std::string::npos);
}

TEST(ExportTest, RenderTextQuantilesStayInTheObservedBucket) {
  MetricsRegistry reg;
  for (int i = 0; i < 100; ++i) {
    reg.GetHistogram("a.wait_ns").Observe(1'100'000);
  }
  // 1.1 ms lies in the bucket [1.048576, 1.179648) ms; fixed 1-2-5
  // bounds rendered it as 2 ms.
  EXPECT_NE(RenderText(reg.Snapshot())
                .find("a.wait_ns: count=100 mean=1.10ms p50=1.11ms p99=1.18ms"),
            std::string::npos)
      << RenderText(reg.Snapshot());
}

// The built-in instrumentation registers its metrics in the global
// registry the moment the instrumented classes are constructed.
TEST(GlobalRegistryTest, IsSingleton) {
  EXPECT_EQ(&Registry(), &Registry());
}

}  // namespace
}  // namespace whodunit::obs
