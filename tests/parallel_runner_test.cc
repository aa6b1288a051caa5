// sim::ParallelRunner and the deterministic-merge primitives it rests
// on: ShardEnv isolation, shard-registered id-counter restarts, and
// the name/id remapping merges of ContextTree, CallingContextTree
// (through a FunctionRegistry remap), and CrosstalkRecorder.
#include "src/sim/parallel_runner.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/callpath/cct.h"
#include "src/callpath/function_registry.h"
#include "src/context/context_tree.h"
#include "src/context/transaction_context.h"
#include "src/crosstalk/crosstalk.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
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
    context::ContextTree& tree = context::GlobalContextTree();
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

TEST(ContextTreeMergeTest, RemapsCollidingNodeIds) {
  // Two trees whose NodeId spaces collide: id 1 spells a different
  // element sequence in each.
  context::ContextTree a;
  context::NodeId a1 = a.Append(context::kEmptyContext,
                                Element{ElementKind::kHandler, 7});
  a.Append(a1, Element{ElementKind::kStage, 3});

  context::ContextTree b;
  context::NodeId b1 = b.Append(context::kEmptyContext,
                                Element{ElementKind::kHandler, 99});
  context::NodeId b2 = b.Append(b1, Element{ElementKind::kHandler, 7});
  ASSERT_EQ(b1, a1);  // same raw id, different sequence — the collision

  const std::vector<context::NodeId> remap = a.MergeFrom(b);
  ASSERT_EQ(remap.size(), b.node_count());

  // Every node of b must map to a node of a spelling the same element
  // sequence.
  for (context::NodeId id = 0; id < b.node_count(); ++id) {
    EXPECT_EQ(a.Materialize(remap[id]).elements(),
              b.Materialize(id).elements())
        << "node " << id;
  }
  // The colliding id landed on a fresh node, not on a's id 1.
  EXPECT_NE(remap[b1], a1);
  EXPECT_NE(remap[b2], remap[b1]);
}

TEST(ContextTreeMergeTest, SharedSequencesMapOntoExistingNodes) {
  context::ContextTree a;
  context::NodeId shared = a.Append(context::kEmptyContext,
                                    Element{ElementKind::kHandler, 1});

  context::ContextTree b;
  context::NodeId b_shared = b.Append(context::kEmptyContext,
                                      Element{ElementKind::kHandler, 1});

  const size_t nodes_before = a.node_count();
  const std::vector<context::NodeId> remap = a.MergeFrom(b);
  EXPECT_EQ(remap[b_shared], shared);       // hash-consed onto the existing node
  EXPECT_EQ(a.node_count(), nodes_before);  // nothing new was created
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
