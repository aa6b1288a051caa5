// Tests for the self-observability layer (src/obs): instrument
// correctness under concurrent writers, snapshot merging across
// thread shards, and the JSON export round trip and its parser's
// rejection of malformed dumps.
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/export.h"
#include "src/obs/metrics.h"

namespace whodunit::obs {
namespace {

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

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c.Add();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
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
  Histogram& h = reg.GetHistogram("test.hist", {10, 100, 1000});
  h.Observe(5);     // <= 10
  h.Observe(10);    // <= 10 (bounds are inclusive)
  h.Observe(11);    // <= 100
  h.Observe(1000);  // <= 1000
  h.Observe(5000);  // overflow
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 5u + 10 + 11 + 1000 + 5000);
  const std::vector<uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(HistogramTest, ConcurrentObservationsAreLossless) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("test.hist", {1, 2, 4, 8});
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Observe(static_cast<uint64_t>(t) % 10);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t c : h.BucketCounts()) {
    bucket_total += c;
  }
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

TEST(SnapshotTest, MergesAllInstrumentKinds) {
  MetricsRegistry reg;
  reg.GetCounter("c.one").Add(7);
  reg.GetGauge("g.one").Set(-5);
  reg.GetHistogram("h.one", {100}).Observe(42);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("c.one"), 7u);
  EXPECT_EQ(snap.gauges.at("g.one"), -5);
  EXPECT_EQ(snap.histograms.at("h.one").count, 1u);
  EXPECT_EQ(snap.histograms.at("h.one").sum, 42u);

  reg.Reset();
  snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("c.one"), 0u);
  EXPECT_EQ(snap.gauges.at("g.one"), 0);
  EXPECT_EQ(snap.histograms.at("h.one").count, 0u);
}

// A snapshot taken while writers run must see a consistent-enough
// view: every value it reports was true at some point (no torn or
// garbage values for a monotonic counter means: <= final total).
TEST(SnapshotTest, ConcurrentWithWriters) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("c.racing");
  std::thread writer([&c] {
    for (int i = 0; i < 100'000; ++i) {
      c.Add();
    }
  });
  uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const uint64_t v = reg.Snapshot().counters.at("c.racing");
    EXPECT_GE(v, last);  // monotone
    last = v;
  }
  writer.join();
  EXPECT_LE(last, c.Value());
  EXPECT_EQ(c.Value(), 100'000u);
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
  Histogram& h = reg.GetHistogram("events.handler_ns", {10, 100});
  h.Observe(5);
  h.Observe(50);
  h.Observe(500);
  const std::string json = ToJson(reg.Snapshot());

  MetricsSnapshot parsed;
  ASSERT_TRUE(ParseJson(json, &parsed));
  EXPECT_EQ(parsed.counters.at("shm.flows_detected"), 12u);
  EXPECT_EQ(parsed.counters.at("sampler.samples_taken"), 34u);
  EXPECT_EQ(parsed.counters.at("name \"quoted\"\n\x01"), UINT64_MAX);
  EXPECT_EQ(parsed.gauges.at("shm.dict_size"), -1);
  EXPECT_EQ(parsed.gauges.at("g.min"), INT64_MIN);
  const HistogramSnapshot& ph = parsed.histograms.at("events.handler_ns");
  EXPECT_EQ(ph.bounds, (std::vector<uint64_t>{10, 100}));
  EXPECT_EQ(ph.counts, (std::vector<uint64_t>{1, 1, 1}));
  EXPECT_EQ(ph.count, 3u);
  EXPECT_EQ(ph.sum, 555u);
  // Re-serializing the parsed snapshot reproduces the same bytes.
  EXPECT_EQ(ToJson(parsed), json);

  const std::string tail = "\n  }\n}\n";  // closes "histograms" and the document
  struct Case {
    const char* what;
    std::string input;
  };
  std::vector<Case> malformed = {
      {"v1 dump with spans",
       ReplaceOnce(ReplaceOnce(json, "\"version\": 2", "\"version\": 1"), tail,
                   "\n  },\n  \"spans\": [\n    {\"name\": \"events.handler\", \"detail\": "
                   "\"h\", \"ctxt_hash\": 7, \"start_ns\": 100, \"duration_ns\": 42}\n  ]\n}\n")},
      {"v2 dump with spans", ReplaceOnce(json, tail, "\n  },\n  \"spans\": []\n}\n")},
      {"wrong schema", ReplaceOnce(json, "whodunit-metrics", "whodunit-bench")},
      {"unknown key", ReplaceOnce(json, "\"counters\"", "\"extra\": {},\n  \"counters\"")},
      {"unknown histogram key", ReplaceOnce(json, "\"sum\"", "\"mean\": 1, \"sum\"")},
      {"unterminated string", "{\"schema\": \"whodunit-metrics"},
      {"unterminated escape", "{\"schema\": \"whodunit-metrics\\u00"},
      {"counter above UINT64_MAX",
       ReplaceOnce(json, "18446744073709551615", "18446744073709551616")},
      {"counter far above UINT64_MAX",
       ReplaceOnce(json, "18446744073709551615", "99999999999999999999999")},
      {"gauge below INT64_MIN",
       ReplaceOnce(json, "-9223372036854775808", "-9223372036854775809")},
      {"gauge above INT64_MAX", ReplaceOnce(json, "\": -1", "\": 9223372036854775808")},
      {"bucket bound above UINT64_MAX",
       ReplaceOnce(json, "[10,100]", "[10,100000000000000000000]")},
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
  EXPECT_FALSE(ParseJson("{\"schema\": \"other\", \"version\": 2}", &out));
  EXPECT_FALSE(ParseJson("{\"schema\": \"whodunit-metrics\", \"version\": 1}", &out));
  EXPECT_FALSE(ParseJson("{\"schema\": \"whodunit-metrics\", \"version\": 3}", &out));
  EXPECT_FALSE(
      ParseJson("{\"schema\": \"whodunit-metrics\", \"version\": 2, \"counters\": {\"x\": }}",
                &out));
}

TEST(ExportTest, RenderTextMentionsEveryInstrument) {
  MetricsRegistry reg;
  reg.GetCounter("a.counter").Add(1);
  reg.GetGauge("a.gauge").Set(2);
  reg.GetHistogram("a.hist", {10}).Observe(3);
  const std::string text = RenderText(reg.Snapshot());
  EXPECT_NE(text.find("a.counter"), std::string::npos);
  EXPECT_NE(text.find("a.gauge"), std::string::npos);
  EXPECT_NE(text.find("a.hist"), std::string::npos);
}

// The built-in instrumentation registers its metrics in the global
// registry the moment the instrumented classes are constructed.
TEST(GlobalRegistryTest, IsSingleton) {
  EXPECT_EQ(&Registry(), &Registry());
}

}  // namespace
}  // namespace whodunit::obs
