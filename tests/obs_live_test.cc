// Tests for the live observability service (src/obs/live): aggregator
// round-trips, the daemon's publish/pump/query cycle, Chrome-trace
// span export (golden + validity), and end-to-end smokes on the apps.
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <string_view>

#include "src/apps/bookstore/bookstore.h"
#include "src/apps/minihttpd/minihttpd.h"
#include "src/apps/sedaserver/sedaserver.h"
#include "src/obs/live/aggregator.h"
#include "src/obs/live/daemon.h"
#include "src/obs/live/span_export.h"
#include "src/obs/live/txn_event.h"
#include "src/obs/metrics.h"
#include "src/sim/parallel_runner.h"
#include "src/sim/scheduler.h"
#include "src/sim/time.h"

namespace whodunit::obs::live {
namespace {

// ---- Minimal JSON validity checker ----------------------------------
// Recursive-descent acceptor for the JSON grammar — enough to prove
// the exports are well-formed without a JSON library in the image.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Peek(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Peek(',')) return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Peek(',')) return false;
    }
  }

  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool Peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(JsonCheckerTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonChecker(R"({"a":[1,2.5,-3e2],"b":"x\"y","c":null,"d":true})").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1,)").Valid());
  EXPECT_FALSE(JsonChecker(R"([1,2,])").Valid());
  EXPECT_FALSE(JsonChecker("{} trailing").Valid());
}

// ---- Aggregator ------------------------------------------------------

// Names intern through the thread-current symbol table — the same one
// default-constructed aggregators/daemons resolve against.
util::SymId S(std::string_view name) { return util::Syms().Intern(name); }

TxnEvent MakeEvent(uint64_t id, const std::string& type, int64_t start,
                   int64_t end, bool error = false) {
  TxnEvent ev;
  ev.txn_id = id;
  ev.type = S(type);
  ev.origin_stage = S("front");
  ev.start_ns = start;
  ev.end_ns = end;
  ev.error = error;
  ev.spans.push_back({S("front"), start, end - start, -1, 0});
  ev.spans.push_back({S("back"), start + 10, end - start - 10, 0, 7});
  return ev;
}

TEST(LiveAggregatorTest, IngestRoundTrip) {
  LiveAggregator agg;
  agg.Ingest(MakeEvent(1, "read", 0, sim::Millis(10)));
  agg.Ingest(MakeEvent(2, "read", 0, sim::Millis(30)));
  agg.Ingest(MakeEvent(3, "write", 0, sim::Millis(50), /*error=*/true));

  EXPECT_EQ(agg.txns(), 3u);
  EXPECT_EQ(agg.errors(), 1u);

  const auto types = agg.TypeRows();
  ASSERT_EQ(types.size(), 2u);
  EXPECT_EQ(types[0].type, "read");  // highest count first
  EXPECT_EQ(types[0].count, 2u);
  EXPECT_EQ(types[0].errors, 0u);
  EXPECT_NEAR(types[0].mean_ms, 20.0, 20.0 * 0.15);
  EXPECT_EQ(types[1].type, "write");
  EXPECT_EQ(types[1].errors, 1u);
  // Quantiles come from the mergeable histogram: within 15% of truth.
  EXPECT_NEAR(types[1].p99_ms, 50.0, 50.0 * 0.15);

  const auto stages = agg.StageRows();
  ASSERT_EQ(stages.size(), 2u);
  for (const auto& s : stages) {
    EXPECT_EQ(s.spans, 3u) << s.stage;
    EXPECT_GT(s.busy_ms, 0.0) << s.stage;
  }

  ASSERT_NE(agg.HistogramFor("read"), nullptr);
  EXPECT_EQ(agg.HistogramFor("read")->count(), 2u);
  EXPECT_EQ(agg.HistogramFor("nosuch"), nullptr);
}

TEST(LiveAggregatorTest, CostAndCrosstalk) {
  LiveAggregator agg;
  agg.AddCost(/*ctxt=*/5, 1000);
  agg.AddCost(/*ctxt=*/9, 3000);
  agg.AddCost(/*ctxt=*/5, 500);

  auto top = agg.TopContexts(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].ctxt, 9u);  // heaviest first
  EXPECT_EQ(top[0].cost_ns, 3000u);
  EXPECT_EQ(top[1].ctxt, 5u);
  EXPECT_EQ(top[1].cost_ns, 1500u);
  EXPECT_EQ(agg.TopContexts(1).size(), 1u);

  agg.NameTag(11, "OrderStatus");
  agg.IngestWait(/*waiter=*/11, /*holder=*/22, sim::Millis(4));
  agg.IngestWait(/*waiter=*/11, /*holder=*/22, sim::Millis(8));
  const auto pairs = agg.CrosstalkRows();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].waiter, "OrderStatus");
  EXPECT_EQ(pairs[0].holder, "tag_22");  // unnamed tag
  EXPECT_EQ(pairs[0].count, 2u);
  EXPECT_DOUBLE_EQ(pairs[0].mean_wait_ms, 6.0);
}

// ---- Daemon ----------------------------------------------------------

TEST(WhodunitdTest, PublishPumpQuery) {
  sim::Scheduler sched;
  {
    // publish_batch = 1: every completion crosses the channel alone,
    // so mid-run queries see the event as soon as the pump runs.
    LiveOptions options;
    options.publish_batch = 1;
    Whodunitd d(sched, options);

    const uint64_t txn = d.BeginTxn("front", d.now());
    ASSERT_NE(txn, 0u);
    EXPECT_EQ(d.inflight(), 1u);
    d.SetTxnType(txn, "checkout");
    d.NoteSend(txn, "front", /*link=*/42);
    sched.ScheduleAt(sim::Micros(10), [&] {
      d.JoinSpan(txn, "back", /*link=*/42, d.now());
    });
    sched.ScheduleAt(sim::Micros(30), [&] { d.EndSpan(txn, "back", d.now()); });
    sched.ScheduleAt(sim::Micros(40), [&] {
      d.SetTxnCtxt(txn, 17);
      d.CompleteTxn(txn, d.now());
    });
    sched.Run();  // pump drains the published event

    EXPECT_EQ(d.inflight(), 0u);
    EXPECT_EQ(d.aggregator().txns(), 1u);

    const auto events = d.RecentEvents();
    ASSERT_EQ(events.size(), 1u);
    const TxnEvent& ev = events[0];
    EXPECT_EQ(ev.type, S("checkout"));
    EXPECT_EQ(ev.origin_stage, S("front"));
    EXPECT_EQ(ev.root_ctxt, 17u);
    EXPECT_EQ(ev.end_ns, sim::Micros(40));
    ASSERT_EQ(ev.spans.size(), 2u);
    // The origin span stayed open until CompleteTxn closed it.
    EXPECT_EQ(ev.spans[0].stage, S("front"));
    EXPECT_EQ(ev.spans[0].duration_ns, sim::Micros(40));
    // The joined span linked to the origin via the noted send part.
    EXPECT_EQ(ev.spans[1].stage, S("back"));
    EXPECT_EQ(ev.spans[1].parent, 0);
    EXPECT_EQ(ev.spans[1].link, 42u);
    EXPECT_EQ(ev.spans[1].duration_ns, sim::Micros(20));

    const auto snap = d.Top();
    EXPECT_EQ(snap.txns, 1u);
    ASSERT_EQ(snap.types.size(), 1u);
    EXPECT_EQ(snap.types[0].type, "checkout");

    const std::string table = d.RenderTop(snap);
    EXPECT_NE(table.find("whodunitd"), std::string::npos);
    EXPECT_NE(table.find("checkout"), std::string::npos);

    const std::string json = d.QueryJson();
    EXPECT_TRUE(JsonChecker(json).Valid()) << json;
    EXPECT_NE(json.find("\"whodunit-live-v1\""), std::string::npos);

    EXPECT_TRUE(JsonChecker(d.ExportSpansJson()).Valid());

    // Drain the in-band close while the daemon (and its channel) is
    // still alive — same order the apps use.
    d.Shutdown();
    sched.Run();
  }
}

TEST(WhodunitdTest, InflightCapDropsAndShutdownAbandons) {
  sim::Scheduler sched;
  {
    LiveOptions options;
    options.max_inflight = 2;
    Whodunitd d(sched, options);
    const uint64_t a = d.BeginTxn("s", 0);
    const uint64_t b = d.BeginTxn("s", 0);
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_EQ(d.BeginTxn("s", 0), 0u);  // over the cap: dropped
    // Hooks on a dropped (0) txn are no-ops, not crashes.
    d.SetTxnType(0, "x");
    d.JoinSpan(0, "s", 0, 0);
    d.EndSpan(0, "s", 0);
    d.CompleteTxn(0, 0);
    EXPECT_EQ(d.inflight(), 2u);
    d.Shutdown();  // abandons a and b
    EXPECT_EQ(d.inflight(), 0u);
    EXPECT_EQ(d.BeginTxn("s", 0), 0u);  // after shutdown: dropped
    sched.Run();
  }
}

TEST(WhodunitdTest, SpanRingKeepsNewest) {
  sim::Scheduler sched;
  {
    LiveOptions options;
    options.span_ring = 3;
    options.publish_batch = 1;
    Whodunitd d(sched, options);
    for (int i = 0; i < 5; ++i) {
      const uint64_t txn = d.BeginTxn("s", d.now());
      std::string type = "t";
      type += std::to_string(i);
      d.SetTxnType(txn, type);
      d.CompleteTxn(txn, d.now());
    }
    sched.Run();
    const auto events = d.RecentEvents();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events.front().type, S("t2"));  // oldest retained
    EXPECT_EQ(events.back().type, S("t4"));   // newest last
    EXPECT_EQ(d.aggregator().txns(), 5u);  // ring does not limit aggregation
    d.Shutdown();
    sched.Run();
  }
}

// The lifecycle counters must reconcile: every transaction that began
// is either published or abandoned once the daemon shuts down (dropped
// transactions never count as begun), and the aggregator-side ingest
// counter matches the publish count after the pump drains. See
// docs/METRICS.md "Live pipeline counters" for the exact semantics.
TEST(WhodunitdTest, LifecycleCountersReconcileAtShutdown) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  sim::Scheduler sched;
  {
    LiveOptions options;
    options.max_inflight = 2;
    options.publish_batch = 2;
    Whodunitd d(sched, options);
    const uint64_t a = d.BeginTxn("s", 0);
    const uint64_t b = d.BeginTxn("s", 0);
    ASSERT_NE(a, 0u);
    ASSERT_NE(b, 0u);
    EXPECT_EQ(d.BeginTxn("s", 0), 0u);  // over the cap: dropped, not begun
    d.CompleteTxn(a, 10);
    // Mid-run: begun == published + abandoned + in-flight.
    EXPECT_EQ(reg.GetCounter("live.txns_begun").Value(),
              reg.GetCounter("live.txns_published").Value() +
                  reg.GetCounter("live.txns_abandoned").Value() + d.inflight());
    d.Shutdown();  // abandons b, flushes the partial batch
    sched.Run();
    EXPECT_EQ(reg.GetCounter("live.txns_begun").Value(), 2u);
    EXPECT_EQ(reg.GetCounter("live.txns_published").Value(), 1u);
    EXPECT_EQ(reg.GetCounter("live.txns_abandoned").Value(), 1u);
    EXPECT_EQ(reg.GetCounter("live.txns_dropped").Value(), 1u);
    EXPECT_EQ(d.inflight(), 0u);
    EXPECT_EQ(reg.GetCounter("live.txns_begun").Value(),
              reg.GetCounter("live.txns_published").Value() +
                  reg.GetCounter("live.txns_abandoned").Value());
    // Aggregator-side: one ingested txn (== published), and its spans.
    EXPECT_EQ(reg.GetCounter("live.txns_ingested").Value(),
              reg.GetCounter("live.txns_published").Value());
    EXPECT_EQ(reg.GetCounter("live.spans_ingested").Value(), 1u);
    EXPECT_EQ(reg.GetCounter("live.batches_published").Value(), 1u);
  }
}

// ---- Span export -----------------------------------------------------

TEST(SpanExportTest, GoldenChromeTrace) {
  TxnEvent ev;
  ev.txn_id = 7;
  ev.type = S("checkout");
  ev.origin_stage = S("frontend");
  ev.root_ctxt = 3;
  ev.start_ns = 1000;
  ev.end_ns = 5000;
  ev.spans.push_back({S("frontend"), 1000, 4000, -1, 0});
  ev.spans.push_back({S("db"), 2000, 1500, 0, 42});

  // Byte-exact golden: the export is deterministic (fixed three-decimal
  // microsecond timestamps, tracks numbered by first appearance).
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"db\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"frontend\"}},\n"
      "{\"name\":\"checkout\",\"cat\":\"txn\",\"ph\":\"X\",\"cname\":\"grey\",\"pid\":1,"
      "\"tid\":0,\"ts\":1.000,"
      "\"dur\":4.000,\"args\":{\"txn\":7,\"stage\":\"frontend\",\"ctxt\":3}},\n"
      "{\"name\":\"checkout\",\"cat\":\"txn\",\"ph\":\"X\",\"cname\":\"grey\",\"pid\":1,"
      "\"tid\":1,\"ts\":2.000,"
      "\"dur\":1.500,\"args\":{\"txn\":7,\"stage\":\"db\",\"ctxt\":3}},\n"
      "{\"name\":\"synopsis_42\",\"cat\":\"flow\",\"ph\":\"s\",\"pid\":1,\"tid\":0,"
      "\"ts\":2.000,\"id\":1},\n"
      "{\"name\":\"synopsis_42\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,"
      "\"tid\":1,\"ts\":2.000,\"id\":1}\n"
      "]}\n";
  EXPECT_EQ(ExportChromeTrace({ev}), expected);
  EXPECT_TRUE(JsonChecker(expected).Valid());
}

// Spans with wait-state measurements are color-coded by dominant
// component: lock wait red ("terrible"), queue wait light green
// ("thread_state_runnable"), service dark green
// ("thread_state_running"); unmeasured spans stay grey.
TEST(SpanExportTest, ColorCodesSpansByDominantWaitState) {
  TxnEvent ev;
  ev.txn_id = 9;
  ev.type = S("checkout");
  ev.start_ns = 0;
  ev.end_ns = 10000;
  // {stage, start, dur, parent, link, queue, service, lock, ctxt}
  ev.spans.push_back({S("proxy"), 0, 10000, -1, 0, 0, 4000, 0, 0});      // service-heavy
  ev.spans.push_back({S("httpd"), 1000, 8000, 0, 1, 5000, 2000, 0, 0});  // queue-heavy
  ev.spans.push_back({S("db"), 2000, 6000, 1, 2, 100, 200, 4000, 0});    // lock-heavy
  ev.spans.push_back({S("cache"), 3000, 1000, 2, 3});                    // unmeasured

  const std::string out = ExportChromeTrace({ev});
  EXPECT_TRUE(JsonChecker(out).Valid()) << out;
  EXPECT_NE(out.find("\"cname\":\"thread_state_running\",\"pid\":1,\"tid\":0"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"cname\":\"thread_state_runnable\",\"pid\":1,\"tid\":1"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"cname\":\"terrible\",\"pid\":1,\"tid\":2"), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"cname\":\"grey\",\"pid\":1,\"tid\":3"), std::string::npos) << out;
}

TEST(SpanExportTest, EmptyAndEscaping) {
  EXPECT_TRUE(JsonChecker(ExportChromeTrace({})).Valid());

  TxnEvent ev;
  ev.txn_id = 1;
  ev.type = S("quo\"te\\slash");
  ev.spans.push_back({S("sta\"ge"), 0, 10, -1, 0});
  const std::string out = ExportChromeTrace({ev});
  EXPECT_TRUE(JsonChecker(out).Valid()) << out;
}

// ---- End-to-end smokes -----------------------------------------------

TEST(LiveEndToEndTest, BookstorePublishesLiveProfile) {
  apps::BookstoreOptions options;
  options.clients = 20;
  options.duration = sim::Seconds(40);
  options.warmup = sim::Seconds(5);
  options.live = true;
  options.live_span_ring = 16;
  const auto result = apps::RunBookstore(options);

  EXPECT_NE(result.live_top_text.find("whodunitd"), std::string::npos);
  // At least one TPC-W interaction type made it into the table.
  EXPECT_NE(result.live_top_text.find("Home"), std::string::npos);
  EXPECT_TRUE(JsonChecker(result.live_query_json).Valid());
  EXPECT_NE(result.live_query_json.find("\"whodunit-live-v1\""), std::string::npos);
  EXPECT_TRUE(JsonChecker(result.live_span_json).Valid());
  // Spans flowed through all three stages and were linked into traces.
  EXPECT_NE(result.live_span_json.find("\"squid\""), std::string::npos);
  EXPECT_NE(result.live_span_json.find("\"mysql\""), std::string::npos);
  EXPECT_NE(result.live_span_json.find("synopsis_"), std::string::npos);
  // The live path must not disturb the measured run.
  EXPECT_GT(result.interactions, 0u);
}

TEST(LiveEndToEndTest, BookstoreWhyTailBlamesDbLockWait) {
  // The acceptance scenario for the attribution work: on a contended
  // bookstore, the p99-vs-p50 differential must attribute the tail
  // gap to lock waiting on the DB stage — the writes serialize on
  // row locks, so tail transactions spend their extra time in
  // mysql/lock_wait, not in more service.
  apps::BookstoreOptions options;
  options.clients = 50;
  options.duration = sim::Seconds(120);
  options.warmup = sim::Seconds(10);
  options.live = true;
  const auto result = apps::RunBookstore(options);

  ASSERT_FALSE(result.live_why_tail_text.empty());
  ASSERT_FALSE(result.live_attr_folded.empty());
  EXPECT_NE(result.live_why_tail_text.find("why-tail: p99 vs p50"),
            std::string::npos);
  // The folded whodunit-attr-v1 export carries DB lock-wait frames.
  EXPECT_NE(result.live_attr_folded.find(";mysql;lock_wait "),
            std::string::npos)
      << result.live_attr_folded;

  // Per type the delta rows are sorted largest-gap-first: for at least
  // one transaction type the dominant tail contributor must be
  // mysql/lock_wait (the row right after the STAGE/STATE header).
  bool lock_wait_dominates = false;
  std::istringstream lines(result.live_why_tail_text);
  std::string line;
  bool next_is_top_row = false;
  while (std::getline(lines, line)) {
    if (next_is_top_row) {
      next_is_top_row = false;
      if (line.find("mysql") != std::string::npos &&
          line.find("lock_wait") != std::string::npos) {
        lock_wait_dominates = true;
        break;
      }
    }
    if (line.find("STAGE") != std::string::npos &&
        line.find("STATE") != std::string::npos) {
      next_is_top_row = true;
    }
  }
  EXPECT_TRUE(lock_wait_dominates) << result.live_why_tail_text;
}

// Batching determinism (docs/OBSERVABILITY.md "Batching and
// determinism"): the publish batch preserves completion order and the
// channel is FIFO, so every end-of-run export must be byte-identical
// for any --publish-batch value. Each run executes under a fresh
// ShardEnv so context NodeIds, metrics, and SymIds restart from the
// same seeds.
TEST(LiveEndToEndTest, ExportsAreInvariantUnderPublishBatchSize) {
  auto run = [](size_t batch) {
    sim::ShardEnv env;
    sim::ShardEnv::Scope scope(env);
    apps::BookstoreOptions options;
    options.clients = 10;
    options.duration = sim::Seconds(20);
    options.warmup = sim::Seconds(2);
    options.live = true;
    options.live_span_ring = 16;
    options.live_publish_batch = batch;
    return apps::RunBookstore(options);
  };
  const auto unbatched = run(1);
  const auto batched = run(64);
  const auto coarse = run(1024);
  ASSERT_FALSE(unbatched.live_query_json.empty());
  EXPECT_EQ(unbatched.live_query_json, batched.live_query_json);
  EXPECT_EQ(unbatched.live_query_json, coarse.live_query_json);
  EXPECT_EQ(unbatched.live_top_text, batched.live_top_text);
  EXPECT_EQ(unbatched.live_top_text, coarse.live_top_text);
  EXPECT_EQ(unbatched.live_span_json, batched.live_span_json);
  EXPECT_EQ(unbatched.live_span_json, coarse.live_span_json);
  EXPECT_EQ(unbatched.live_attr_folded, batched.live_attr_folded);
  EXPECT_EQ(unbatched.live_attr_folded, coarse.live_attr_folded);
  EXPECT_EQ(unbatched.live_why_tail_text, batched.live_why_tail_text);
  EXPECT_EQ(unbatched.live_why_tail_text, coarse.live_why_tail_text);
}

// The merged sharded exports must also be invariant across worker
// thread counts and batch sizes together (the acceptance matrix).
TEST(LiveEndToEndTest, ShardedExportsInvariantAcrossThreadsAndBatch) {
  auto run = [](int threads, size_t batch) {
    apps::BookstoreOptions options;
    options.clients = 12;
    options.duration = sim::Seconds(20);
    options.warmup = sim::Seconds(2);
    options.live = true;
    options.live_span_ring = 16;
    options.live_publish_batch = batch;
    options.shards = 4;
    options.threads = threads;
    return apps::RunBookstore(options);
  };
  const auto serial = run(1, 1);
  const auto threaded = run(4, 64);
  const auto wide = run(8, 1024);
  ASSERT_FALSE(serial.live_query_json.empty());
  EXPECT_EQ(serial.live_query_json, threaded.live_query_json);
  EXPECT_EQ(serial.live_query_json, wide.live_query_json);
  EXPECT_EQ(serial.live_attr_folded, threaded.live_attr_folded);
  EXPECT_EQ(serial.live_attr_folded, wide.live_attr_folded);
  EXPECT_EQ(serial.live_top_text, threaded.live_top_text);
  EXPECT_EQ(serial.live_top_text, wide.live_top_text);
  EXPECT_EQ(serial.db_profile_text, threaded.db_profile_text);
  EXPECT_EQ(serial.db_profile_text, wide.db_profile_text);
}

TEST(LiveEndToEndTest, MinihttpdTracksConnections) {
  apps::MinihttpdOptions options;
  options.workers = 4;
  options.clients = 16;
  options.duration = sim::Seconds(5);
  options.live = true;
  const auto result = apps::RunMinihttpd(options);

  EXPECT_NE(result.live_top_text.find("whodunitd"), std::string::npos);
  // Connections are typed by response size at accept.
  const bool typed =
      result.live_top_text.find("conn_small") != std::string::npos ||
      result.live_top_text.find("conn_large") != std::string::npos;
  EXPECT_TRUE(typed) << result.live_top_text;
  EXPECT_TRUE(JsonChecker(result.live_span_json).Valid());
  EXPECT_GT(result.connections, 0u);
}

TEST(LiveEndToEndTest, SedaServerRetypesByCacheOutcome) {
  apps::SedaServerOptions options;
  options.clients = 16;
  options.duration = sim::Seconds(5);
  options.live = true;
  const auto result = apps::RunSedaServer(options);

  EXPECT_NE(result.live_top_text.find("whodunitd"), std::string::npos);
  // CacheStage re-labels each transaction with its real outcome.
  EXPECT_NE(result.live_top_text.find("cache_hit"), std::string::npos);
  EXPECT_NE(result.live_top_text.find("cache_miss"), std::string::npos);
  EXPECT_TRUE(JsonChecker(result.live_span_json).Valid());
  // One track per SEDA stage in the trace.
  EXPECT_NE(result.live_span_json.find("\"WriteStage\""), std::string::npos);
  EXPECT_NE(result.live_span_json.find("\"FileIoStage\""), std::string::npos);
  EXPECT_GT(result.requests, 0u);
}

}  // namespace
}  // namespace whodunit::obs::live
