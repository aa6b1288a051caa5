// sim::ParallelRunner and the deterministic-merge primitives it rests
// on: ShardEnv isolation, shard-registered id-counter restarts,
// per-deployment context trees, and the name/id remapping merges of
// Profile::Fold (function, path and synopsis part ids) and
// CrosstalkRecorder.
#include "src/sim/parallel_runner.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/callpath/cct.h"
#include "src/callpath/function_registry.h"
#include "src/context/context_tree.h"
#include "src/crosstalk/crosstalk.h"
#include "src/events/event_loop.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/profiler/deployment.h"
#include "src/profiler/profile.h"
#include "src/profiler/stage_profiler.h"
#include "src/profiler/stitcher.h"
#include "src/sim/lock.h"
#include "src/sim/scheduler.h"

namespace whodunit {
namespace {

using context::Element;
using context::ElementKind;

TEST(ParallelRunnerTest, ShardMetricsAreIsolatedFromTheProcessRegistry) {
  const uint64_t before = obs::Registry().GetCounter("test.shard_iso").Value();

  auto runs = sim::ParallelRunner::Run(4, 2, [](size_t shard, sim::ShardEnv&) {
    // Inside the scope, Registry() resolves to the shard's registry.
    obs::Registry().GetCounter("test.shard_iso").Add(shard + 1);
    return shard;
  });

  // Nothing leaked into the process-wide registry while shards ran.
  EXPECT_EQ(obs::Registry().GetCounter("test.shard_iso").Value(), before);
  // Each shard kept its own count, retrievable after the run.
  for (size_t shard = 0; shard < runs.size(); ++shard) {
    EXPECT_EQ(runs[shard].result, shard);
    EXPECT_EQ(runs[shard].env->metrics().GetCounter("test.shard_iso").Value(),
              shard + 1);
  }

  // The canonical-order fold sums them.
  obs::MetricsRegistry target;
  for (const auto& run : runs) {
    run.env->FoldMetricsInto(target);
  }
  EXPECT_EQ(target.GetCounter("test.shard_iso").Value(), 1u + 2u + 3u + 4u);
}

TEST(ParallelRunnerTest, ShardIdCountersRestartPerShard) {
  // Lock ids come from a shard-registered thread-local allocator
  // (src/util/shard_state.h): every shard must see the same id stream
  // regardless of which pool thread runs it.
  auto runs = sim::ParallelRunner::Run(4, 4, [](size_t, sim::ShardEnv&) {
    sim::Scheduler sched;
    sim::SimMutex first(sched, "a");
    sim::SimMutex second(sched, "b");
    return std::pair<uint64_t, uint64_t>(first.id(), second.id());
  });
  for (size_t shard = 1; shard < runs.size(); ++shard) {
    EXPECT_EQ(runs[shard].result, runs[0].result) << "shard " << shard;
  }
  EXPECT_EQ(runs[0].result.second, runs[0].result.first + 1);
}

TEST(ParallelRunnerTest, ResultsAndFoldedMetricsAreThreadCountInvariant) {
  const auto job = [](size_t shard, sim::ShardEnv&) {
    obs::Registry().GetCounter("test.work").Add(10 * (shard + 1));
    context::ContextTree tree;
    context::NodeId ctxt = context::kEmptyContext;
    for (size_t i = 0; i <= shard; ++i) {
      ctxt = tree.Append(ctxt, Element{ElementKind::kHandler,
                                       static_cast<uint32_t>(i)});
    }
    return std::to_string(shard) + ":" + std::to_string(tree.SizeOf(ctxt));
  };

  std::vector<std::string> reference;
  std::string reference_json;
  for (size_t threads : {1, 2, 8}) {
    auto runs = sim::ParallelRunner::Run(6, threads, job);
    std::vector<std::string> results;
    obs::MetricsRegistry folded;
    for (const auto& run : runs) {
      results.push_back(run.result);
      run.env->FoldMetricsInto(folded);
    }
    const std::string json = obs::ToJson(folded.Snapshot());
    if (threads == 1) {
      reference = results;
      reference_json = json;
      continue;
    }
    EXPECT_EQ(results, reference) << threads << " threads";
    EXPECT_EQ(json, reference_json) << threads << " threads";
  }
}

// What one deployment's context tree saw: an event loop dispatching the
// handler chain names[start] -> names[start + 1] -> ..., with the stage
// profiler following it and sending from the last handler.
struct DeploymentTrace {
  std::vector<context::NodeId> dispatched;  // the loop's current node per dispatch
  context::NodeId sent = context::kEmptyContext;  // the context the send interned
  size_t node_count = 0;
  friend bool operator==(const DeploymentTrace&, const DeploymentTrace&) = default;
};

DeploymentTrace RunHandlerChain(size_t start) {
  const std::vector<std::string> names = {"accept", "read", "write"};
  sim::Scheduler sched;
  profiler::Deployment dep;
  profiler::StageProfiler::Options options;
  options.name = "loop";
  profiler::StageProfiler prof(dep, options);
  profiler::ThreadProfile& tp = prof.CreateThread("loop");
  events::EventLoop loop(sched, dep.contexts());
  DeploymentTrace trace;
  loop.set_context_listener([&](context::NodeId node, bool) {
    prof.SetLocalContext(tp, node);
    trace.dispatched.push_back(node);
  });
  std::vector<events::HandlerId> ids(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    ids[i] = loop.RegisterHandler(
        names[i], [&, i](events::EventLoop::HandlerContext& hc) -> sim::Task<void> {
          if (i + 1 < ids.size()) {
            hc.loop.AddEvent(ids[i + 1], hc.payload);
          } else {
            trace.sent = dep.synopses().Lookup(prof.PrepareSend(tp).parts.back());
          }
          co_return;
        });
  }
  loop.AddExternalEvent(ids[start], 0);
  sim::Spawn(sched, loop.Run());
  sched.ScheduleAt(sim::Seconds(1), [&] { loop.Stop(); });
  sched.Run();
  trace.node_count = dep.contexts().node_count();
  return trace;
}

TEST(DeploymentContextTreeTest, SecondDeploymentInOneShardMatchesItBuiltAlone) {
  // Each deployment owns its context tree, so a deployment's NodeIds
  // and node count do not depend on what ran before it in the same
  // shard (or process).
  sim::ShardEnv alone_env;
  DeploymentTrace alone;
  {
    sim::ShardEnv::Scope scope(alone_env);
    alone = RunHandlerChain(/*start=*/0);
  }
  sim::ShardEnv shared_env;
  DeploymentTrace second;
  {
    sim::ShardEnv::Scope scope(shared_env);
    RunHandlerChain(/*start=*/1);  // interns [read], [read, write], ...
    second = RunHandlerChain(/*start=*/0);
  }
  ASSERT_EQ(alone.dispatched.size(), 3u);
  EXPECT_EQ(alone.dispatched, (std::vector<context::NodeId>{1, 2, 3}));
  // The profiler interned the send into the loop's tree: the send
  // context is the child of the last handler's context.
  EXPECT_EQ(alone.sent, 4u);
  EXPECT_EQ(alone.node_count, 5u);  // root, 3 handler prefixes, the send
  EXPECT_EQ(second, alone);
  // The shard registry's gauge sums both deployments' trees.
  EXPECT_EQ(shared_env.metrics().GetGauge("context.tree_nodes").Value(),
            static_cast<int64_t>(second.node_count) + 4);
}

TEST(MergePrimitivesTest, FoldTranslatesFunctionPathAndPartIds) {
  profiler::Profile a;
  const callpath::FunctionId a_main = a.functions.Intern("main");
  const callpath::PathId a_path = a.paths.Child(a.paths.root(), a_main);
  callpath::CallingContextTree cct_a;
  cct_a.Hold(a.paths, a_path);
  cct_a.Add(a_path, {.samples = 5});
  a.parts = {{0, "type"}};
  a.stages.push_back({"stage", 0, 0, {{context::Synopsis{{0}}, cct_a}}});

  // Shard b's ids disagree with a's: its function 1 and path 1 are
  // "helper", its "main" path is 2, and part 7 names the same context
  // as a's part 0, while its part 0 names another.
  profiler::Profile b;
  const callpath::FunctionId b_helper = b.functions.Intern("helper");
  const callpath::FunctionId b_main = b.functions.Intern("main");
  b.paths.Child(b.paths.root(), b_helper);
  const callpath::PathId b_path = b.paths.Child(b.paths.root(), b_main);
  const callpath::PathId b_leaf = b.paths.Child(b_path, b_helper);
  callpath::CallingContextTree cct_b;
  cct_b.Hold(b.paths, b_leaf);
  cct_b.Add(b_path, {.samples = 7});
  cct_b.Add(b_leaf, {.samples = 2});
  b.parts = {{0, "other"}, {7, "type"}};
  b.stages.push_back(
      {"stage", 0, 0, {{context::Synopsis{{7}}, cct_b}, {context::Synopsis{{0}}, {}}}});

  profiler::Profile merged;
  merged.Fold(a);
  merged.Fold(b);
  // "main" merged onto a's path (5 + 7 samples); "helper" hangs
  // beneath it, and no top-level "helper" appears. Rows are sorted by
  // context description.
  ASSERT_EQ(merged.stages.size(), 1u);
  const auto& rows = merged.stages[0].rows;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(merged.Describe(rows[0].label), "other");
  EXPECT_EQ(rows[1].cct.TotalSamples(), 14u);
  EXPECT_EQ(rows[1].cct.size(), 3u);
  EXPECT_EQ(profiler::Stitcher(merged).RenderStage("stage", 0.0, " (merged)"),
            "=== transactional profile of stage 'stage' (merged) ===\n"
            "--- context other  [0% of stage CPU, 0 samples]\n"
            "--- context type  [0% of stage CPU, 14 samples]\n"
            "main  samples=14 cpu=0ms\n"
            "  helper  samples=2 cpu=0ms\n");
}

TEST(MergePrimitivesTest, CrosstalkMergeRemapsTags) {
  sim::Scheduler sched;
  sim::SimMutex lock(sched, "item_table");

  crosstalk::CrosstalkRecorder a;
  a.OnAcquired(lock, /*waiter=*/1, /*blocking=*/2, /*wait=*/100);

  // The shard recorder used a different tag space: its tag 1 is a
  // different transaction type that must NOT fold into a's tag 1.
  crosstalk::CrosstalkRecorder b;
  b.OnAcquired(lock, /*waiter=*/1, /*blocking=*/2, /*wait=*/300);
  b.OnAcquired(lock, /*waiter=*/1, /*blocking=*/2, /*wait=*/0);  // uncontended

  const auto remap = [](uint64_t tag) { return tag + 10; };
  a.MergeFrom(b, remap);

  EXPECT_EQ(a.acquires_observed(), 3u);
  EXPECT_DOUBLE_EQ(a.MeanPairWait(1, 2), 100.0);    // untouched
  EXPECT_DOUBLE_EQ(a.MeanPairWait(11, 12), 300.0);  // remapped
  EXPECT_DOUBLE_EQ(a.MeanWaitAllAcquires(11), 150.0);
  const std::vector<uint64_t> tags = a.Tags();
  EXPECT_EQ(tags, (std::vector<uint64_t>{1, 2, 11, 12}));

  // Identity merge (no remap) folds stats exactly.
  crosstalk::CrosstalkRecorder c;
  c.OnAcquired(lock, 1, 2, 500);
  a.MergeFrom(c);
  EXPECT_DOUBLE_EQ(a.MeanPairWait(1, 2), 300.0);  // (100 + 500) / 2
}

}  // namespace
}  // namespace whodunit
