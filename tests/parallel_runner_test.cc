// sim::ParallelRunner and the deterministic-merge primitives it rests
// on: ShardEnv isolation, shard-registered id-counter restarts,
// per-deployment context trees, and the name/id remapping merges of
// CallingContextTree (through a FunctionRegistry remap) and
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
#include "src/profiler/stage_profiler.h"
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

TEST(MergePrimitivesTest, CctMergeTranslatesFunctionIds) {
  callpath::FunctionRegistry reg_a;
  const callpath::FunctionId a_main = reg_a.Intern("main");

  callpath::FunctionRegistry reg_b;
  const callpath::FunctionId b_helper = reg_b.Intern("helper");  // id 1 == a_main!
  const callpath::FunctionId b_main = reg_b.Intern("main");

  callpath::CallingContextTree cct_a;
  const auto a_node = cct_a.Child(cct_a.root(), a_main);
  cct_a.AddSample(a_node, 5);

  callpath::CallingContextTree cct_b;
  const auto b_node = cct_b.Child(cct_b.root(), b_main);
  cct_b.AddSample(b_node, 7);
  const auto b_leaf = cct_b.Child(b_node, b_helper);
  cct_b.AddSample(b_leaf, 2);

  const std::vector<callpath::FunctionId> remap = reg_a.MergeFrom(reg_b);
  cct_a.MergeFrom(cct_b, remap);

  // "main" merged onto a's existing node (5 + 7 samples); "helper"
  // hangs beneath it with its translated id.
  const auto merged_main = cct_a.Child(cct_a.root(), a_main);
  EXPECT_EQ(merged_main, a_node);
  EXPECT_EQ(cct_a.node(merged_main).samples, 12u);
  const auto merged_helper = cct_a.Child(merged_main, remap[b_helper]);
  EXPECT_EQ(cct_a.node(merged_helper).samples, 2u);
  EXPECT_EQ(reg_a.Name(cct_a.node(merged_helper).function), "helper");
  EXPECT_EQ(cct_a.TotalSamples(), 14u);
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
