// The shard-determinism contract (docs/PERFORMANCE.md): for a fixed
// shard count the merged profile — CCT dump, crosstalk matrix, metrics
// export — is byte-identical no matter how many pool threads ran the
// shards. threads == 1 runs every shard inline on the calling thread,
// so the sweep also proves the parallel runs match a serial fold of
// the same shard list.
//
// The sweeps over minihttpd, miniproxy and the SEDA server also run the
// flow detector, the VM, the event loop and the SEDA stages on pool
// threads, each shard writing its own metrics registry; under the tsan
// preset they are the check of the metrics single-writer contract
// (src/obs/metrics.h).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/bookstore/bookstore.h"
#include "src/apps/minihttpd/minihttpd.h"
#include "src/apps/miniproxy/miniproxy.h"
#include "src/apps/sedaserver/sedaserver.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/sim/parallel_runner.h"

namespace whodunit {
namespace {

apps::BookstoreOptions SmallRun(int shards, int threads) {
  apps::BookstoreOptions o;
  o.clients = 32;
  o.duration = sim::Seconds(300);
  o.warmup = sim::Seconds(60);
  o.shards = shards;
  o.threads = threads;
  return o;
}

TEST(ShardInvarianceTest, MergedResultIsByteIdenticalAcrossThreadCounts) {
  // Fixed logical decomposition (4 shards), varying physical
  // parallelism. Thread count must not change a single byte of the
  // merged profile or a single merged number.
  apps::BookstoreResult reference;
  for (int threads : {1, 2, 4, 8}) {
    const apps::BookstoreResult result = apps::RunBookstore(SmallRun(4, threads));
    if (threads == 1) {
      reference = result;
      ASSERT_FALSE(reference.db_profile_text.empty());
      ASSERT_FALSE(reference.crosstalk_text.empty());
      continue;
    }
    EXPECT_EQ(result.db_profile_text, reference.db_profile_text)
        << threads << " threads";
    EXPECT_EQ(result.crosstalk_text, reference.crosstalk_text)
        << threads << " threads";
    EXPECT_EQ(result.stitched_text, reference.stitched_text)
        << threads << " threads";
    EXPECT_EQ(result.interactions, reference.interactions);
    EXPECT_DOUBLE_EQ(result.throughput_tpm, reference.throughput_tpm);
    EXPECT_EQ(result.payload_bytes, reference.payload_bytes);
    EXPECT_EQ(result.context_bytes, reference.context_bytes);
    for (size_t t = 0; t < reference.per_type.size(); ++t) {
      EXPECT_EQ(result.per_type[t].count, reference.per_type[t].count) << "type " << t;
      EXPECT_EQ(result.per_type[t].db_cpu_ns, reference.per_type[t].db_cpu_ns)
          << "type " << t;
      EXPECT_DOUBLE_EQ(result.per_type[t].mean_response_ms,
                       reference.per_type[t].mean_response_ms)
          << "type " << t;
    }
  }
}

TEST(ShardInvarianceTest, SampledRunIsByteIdenticalAcrossThreadCounts) {
  // The production-sampling contract (docs/PRODUCTION.md): the 1%-rate
  // run composes with shard determinism. Each shard's decision stream
  // is a stateless hash of (seed + shard, decision index), so at a
  // fixed rate and seed the merged profile is still byte-identical at
  // any thread count.
  apps::BookstoreResult reference;
  for (int threads : {1, 2, 4, 8}) {
    apps::BookstoreOptions o = SmallRun(4, threads);
    o.sample_rate = 0.01;
    o.sample_seed = 1234;
    const apps::BookstoreResult result = apps::RunBookstore(o);
    if (threads == 1) {
      reference = result;
      ASSERT_FALSE(reference.db_profile_text.empty());
      continue;
    }
    EXPECT_EQ(result.db_profile_text, reference.db_profile_text)
        << threads << " threads";
    EXPECT_EQ(result.crosstalk_text, reference.crosstalk_text)
        << threads << " threads";
    EXPECT_EQ(result.stitched_text, reference.stitched_text)
        << threads << " threads";
    EXPECT_EQ(result.interactions, reference.interactions);
    EXPECT_DOUBLE_EQ(result.throughput_tpm, reference.throughput_tpm);
  }
}

TEST(ShardInvarianceTest, ShardCountSweepIsSelfDeterministic) {
  // The S-shard run is a workload definition: re-running it at any
  // S (and any thread placement) reproduces itself exactly.
  for (int shards : {1, 2, 4, 8}) {
    const apps::BookstoreResult first =
        apps::RunBookstore(SmallRun(shards, /*threads=*/2));
    const apps::BookstoreResult second =
        apps::RunBookstore(SmallRun(shards, /*threads=*/shards));
    EXPECT_EQ(first.db_profile_text, second.db_profile_text) << shards << " shards";
    EXPECT_EQ(first.crosstalk_text, second.crosstalk_text) << shards << " shards";
    EXPECT_EQ(first.interactions, second.interactions) << shards << " shards";
    EXPECT_DOUBLE_EQ(first.throughput_tpm, second.throughput_tpm)
        << shards << " shards";
  }
}

TEST(ShardInvarianceTest, OpenLoopPoissonIsByteIdenticalAcrossThreadCounts) {
  // The open-loop golden: Poisson generators (several per shard) with
  // 1% transaction sampling must keep the shard-merge byte-identity
  // contract — each generator's seed derives from the shard seed and
  // its spawn index, never from thread placement.
  apps::BookstoreResult reference;
  for (int threads : {1, 2, 4, 8}) {
    apps::BookstoreOptions o = SmallRun(4, threads);
    o.arrivals.kind = workload::ArrivalKind::kPoisson;
    o.arrivals.clients_per_generator = 4;  // 2 generators per 8-client shard
    o.sample_rate = 0.01;
    o.sample_seed = 77;
    const apps::BookstoreResult result = apps::RunBookstore(o);
    if (threads == 1) {
      reference = result;
      ASSERT_FALSE(reference.db_profile_text.empty());
      ASSERT_GT(reference.interactions, 0u);
      continue;
    }
    EXPECT_EQ(result.db_profile_text, reference.db_profile_text)
        << threads << " threads";
    EXPECT_EQ(result.crosstalk_text, reference.crosstalk_text)
        << threads << " threads";
    EXPECT_EQ(result.stitched_text, reference.stitched_text)
        << threads << " threads";
    EXPECT_EQ(result.interactions, reference.interactions);
    EXPECT_EQ(result.sim_events, reference.sim_events);
    EXPECT_EQ(result.peak_event_queue_depth, reference.peak_event_queue_depth);
    EXPECT_DOUBLE_EQ(result.throughput_tpm, reference.throughput_tpm);
  }
}

TEST(ShardInvarianceTest, AttributionArtifactsAreByteIdenticalAcrossThreadCounts) {
  // PR-9 extension of the golden contract: the wait-state attribution
  // artifacts — the whodunit-attr-v1 folded export and the rendered
  // --why-tail report, both per-shard sections in shard order — must
  // also be byte-identical at any thread count. Attribution is pure
  // per-event arithmetic plus an ordered-map fold, so nothing about
  // thread placement may leak into a single byte.
  apps::BookstoreResult reference;
  for (int threads : {1, 2, 4, 8}) {
    apps::BookstoreOptions o = SmallRun(4, threads);
    o.live = true;
    const apps::BookstoreResult result = apps::RunBookstore(o);
    if (threads == 1) {
      reference = result;
      ASSERT_FALSE(reference.live_attr_folded.empty());
      ASSERT_FALSE(reference.live_why_tail_text.empty());
      // Sanity: the folded export carries real wait-state frames.
      EXPECT_NE(reference.live_attr_folded.find(";service "), std::string::npos);
      EXPECT_NE(reference.live_why_tail_text.find("why-tail: p99 vs p50"),
                std::string::npos);
      continue;
    }
    EXPECT_EQ(result.live_attr_folded, reference.live_attr_folded)
        << threads << " threads";
    EXPECT_EQ(result.live_why_tail_text, reference.live_why_tail_text)
        << threads << " threads";
    EXPECT_EQ(result.live_query_json, reference.live_query_json)
        << threads << " threads";
  }
}

TEST(ShardInvarianceTest, FoldedMetricsExportIsThreadCountInvariant) {
  // The full metrics JSON — the third artifact of the golden contract.
  // Each job runs a small bookstore inside its own ShardEnv; folding
  // the shard registries in job order must give the same bytes at any
  // thread count.
  const auto job = [](size_t shard, sim::ShardEnv&) {
    apps::BookstoreOptions o;
    o.clients = 8;
    o.duration = sim::Seconds(120);
    o.warmup = sim::Seconds(30);
    o.seed = 1 + shard;
    apps::RunBookstore(o);
    return 0;
  };
  std::string reference_json;
  for (size_t threads : {1, 4}) {
    auto runs = sim::ParallelRunner::Run(3, threads, job);
    obs::MetricsRegistry folded;
    for (const auto& run : runs) {
      run.env->FoldMetricsInto(folded);
    }
    const std::string json = obs::ToJson(folded.Snapshot());
    if (threads == 1) {
      reference_json = json;
      ASSERT_FALSE(reference_json.empty());
      continue;
    }
    EXPECT_EQ(json, reference_json) << threads << " threads";
  }
}

// Runs `o` as 4 shards on 1 and on 4 pool threads, each run folding
// into a fresh registry, and expects `same` results and byte-identical
// folded metrics JSON; the dump laws (obs::CheckLaws) hold on every
// run. Returns the 1-thread result.
template <typename Options, typename Result, typename Same>
Result ExpectThreadCountInvariant(Options o, Result (*run)(const Options&), Same same) {
  o.shards = 4;
  Result reference;
  std::string reference_json;
  for (int threads : {1, 4}) {
    o.threads = threads;
    obs::MetricsRegistry registry;
    Result result;
    {
      obs::ScopedMetricsRegistry scope(registry);
      result = run(o);
    }
    const obs::MetricsSnapshot snapshot = registry.Snapshot();
    for (const std::string& law : obs::CheckLaws(snapshot)) {
      ADD_FAILURE() << threads << " threads: " << law;
    }
    const std::string json = obs::ToJson(snapshot);
    if (threads == 1) {
      reference = result;
      reference_json = json;
      continue;
    }
    same(result, reference);
    EXPECT_EQ(json, reference_json) << threads << " threads";
  }
  return reference;
}

TEST(ShardInvarianceTest, MinihttpdIsByteIdenticalAcrossThreadCounts) {
  apps::MinihttpdOptions o;
  o.clients = 16;
  o.duration = sim::Seconds(4);
  const apps::MinihttpdResult reference = ExpectThreadCountInvariant(
      o, &apps::RunMinihttpd, [](const apps::MinihttpdResult& r, const apps::MinihttpdResult& ref) {
        EXPECT_EQ(r.profile_text, ref.profile_text);
        EXPECT_EQ(r.requests, ref.requests);
        EXPECT_EQ(r.connections, ref.connections);
        EXPECT_EQ(r.bytes_served, ref.bytes_served);
        EXPECT_EQ(r.flows_detected, ref.flows_detected);
        EXPECT_EQ(r.queue_flow_detected, ref.queue_flow_detected);
        EXPECT_EQ(r.allocator_demoted, ref.allocator_demoted);
        EXPECT_EQ(r.critical_sections_emulated, ref.critical_sections_emulated);
        EXPECT_EQ(r.origin_cpu_ns, ref.origin_cpu_ns);
        EXPECT_EQ(r.total_cpu_ns, ref.total_cpu_ns);
      });
  EXPECT_TRUE(reference.queue_flow_detected);
  EXPECT_GT(reference.critical_sections_emulated, 0u);
}

TEST(ShardInvarianceTest, MiniproxyIsByteIdenticalAcrossThreadCounts) {
  apps::MiniproxyOptions o;
  o.clients = 24;
  o.duration = sim::Seconds(6);
  const apps::MiniproxyResult reference = ExpectThreadCountInvariant(
      o, &apps::RunMiniproxy, [](const apps::MiniproxyResult& r, const apps::MiniproxyResult& ref) {
        EXPECT_EQ(r.profile_text, ref.profile_text);
        EXPECT_EQ(r.requests, ref.requests);
        EXPECT_EQ(r.cache_hits, ref.cache_hits);
        EXPECT_EQ(r.cache_misses, ref.cache_misses);
        EXPECT_EQ(r.write_handler_context_count, ref.write_handler_context_count);
        EXPECT_EQ(r.hit_path_cpu_ns, ref.hit_path_cpu_ns);
        EXPECT_EQ(r.miss_path_cpu_ns, ref.miss_path_cpu_ns);
        EXPECT_EQ(r.total_cpu_ns, ref.total_cpu_ns);
      });
  EXPECT_EQ(reference.write_handler_context_count, 2u);
}

TEST(ShardInvarianceTest, SedaServerIsByteIdenticalAcrossThreadCounts) {
  apps::SedaServerOptions o;
  o.clients = 24;
  o.duration = sim::Seconds(6);
  o.live = true;
  const apps::SedaServerResult reference = ExpectThreadCountInvariant(
      o, &apps::RunSedaServer,
      [](const apps::SedaServerResult& r, const apps::SedaServerResult& ref) {
        EXPECT_EQ(r.profile_text, ref.profile_text);
        EXPECT_EQ(r.requests, ref.requests);
        EXPECT_EQ(r.cache_hits, ref.cache_hits);
        EXPECT_EQ(r.cache_misses, ref.cache_misses);
        EXPECT_EQ(r.write_stage_context_count, ref.write_stage_context_count);
        EXPECT_EQ(r.write_hit_cpu_ns, ref.write_hit_cpu_ns);
        EXPECT_EQ(r.write_miss_cpu_ns, ref.write_miss_cpu_ns);
        EXPECT_EQ(r.total_cpu_ns, ref.total_cpu_ns);
        EXPECT_EQ(r.live_top_text, ref.live_top_text);
        EXPECT_EQ(r.live_span_json, ref.live_span_json);
      });
  EXPECT_EQ(reference.write_stage_context_count, 2u);
  EXPECT_FALSE(reference.live_span_json.empty());
}

}  // namespace
}  // namespace whodunit
