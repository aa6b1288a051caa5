#include "src/seda/stage.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "tests/context_testing.h"

namespace whodunit::seda {
namespace {

using context::Element;
using context::ElementKind;
using Elements = std::vector<Element>;

Element S(StageId id) { return Element{ElementKind::kStage, id}; }

TEST(SedaTest, PipelinePropagatesContexts) {
  sim::Scheduler sched;
  context::ContextTree tree;
  StageGraph graph(sched, tree);
  std::vector<std::pair<StageId, Elements>> seen;
  graph.set_context_listener([&](StageId s, int, context::NodeId node, bool) {
    seen.emplace_back(s, context::ElementsOf(tree, node));
  });

  StageId write = 0;
  StageId read = graph.AddStage("read", 1, [&](StageGraph::WorkerContext& wc) -> sim::Task<void> {
    wc.EnqueueTo(write, wc.payload);
    co_return;
  });
  write = graph.AddStage("write", 1, [](StageGraph::WorkerContext&) -> sim::Task<void> {
    co_return;
  });

  graph.Start();
  graph.InjectExternal(read, 5);
  sched.ScheduleAt(sim::Seconds(1), [&] { graph.Stop(); });
  sched.Run();

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].second, Elements({S(read)}));
  EXPECT_EQ(seen[1].second, Elements({S(read), S(write)}));
  EXPECT_EQ(graph.stage(read).processed(), 1u);
  EXPECT_EQ(graph.stage(write).processed(), 1u);
}

TEST(SedaTest, BranchingCreatesDistinctContexts) {
  // CacheStage routes to WriteStage directly (hit) or via MissStage:
  // WriteStage executes under two different transaction contexts.
  sim::Scheduler sched;
  context::ContextTree tree;
  StageGraph graph(sched, tree);
  std::vector<Elements> write_ctxts;

  StageId write = 0, miss = 0;
  StageId cache =
      graph.AddStage("cache", 1, [&](StageGraph::WorkerContext& wc) -> sim::Task<void> {
        wc.EnqueueTo(wc.payload == 0 ? write : miss, wc.payload);
        co_return;
      });
  miss = graph.AddStage("miss", 1, [&](StageGraph::WorkerContext& wc) -> sim::Task<void> {
    wc.EnqueueTo(write, wc.payload);
    co_return;
  });
  write = graph.AddStage("write", 1, [&](StageGraph::WorkerContext& wc) -> sim::Task<void> {
    write_ctxts.push_back(context::ElementsOf(tree, wc.current_node()));
    co_return;
  });

  graph.Start();
  graph.InjectExternal(cache, 0);  // hit
  graph.InjectExternal(cache, 1);  // miss
  sched.ScheduleAt(sim::Seconds(1), [&] { graph.Stop(); });
  sched.Run();

  ASSERT_EQ(write_ctxts.size(), 2u);
  EXPECT_EQ(write_ctxts[0], Elements({S(cache), S(write)}));
  EXPECT_EQ(write_ctxts[1], Elements({S(cache), S(miss), S(write)}));
}

TEST(SedaTest, MultipleWorkersShareTheQueue) {
  sim::Scheduler sched;
  context::ContextTree tree;
  StageGraph graph(sched, tree);
  std::map<int, int> per_worker;
  StageId st = graph.AddStage("work", 4, [&](StageGraph::WorkerContext& wc) -> sim::Task<void> {
    ++per_worker[wc.worker];
    co_await sim::Delay{wc.graph.scheduler(), sim::Millis(1)};
  });
  graph.Start();
  for (int i = 0; i < 8; ++i) {
    graph.InjectExternal(st, static_cast<uint64_t>(i));
  }
  sched.ScheduleAt(sim::Seconds(1), [&] { graph.Stop(); });
  sched.Run();
  EXPECT_EQ(graph.stage(st).processed(), 8u);
  // With 4 workers and 1 ms jobs arriving together, work spreads out.
  EXPECT_EQ(per_worker.size(), 4u);
}

TEST(SedaTest, StageLoopPruning) {
  // Ping-pong between two stages (RPC-like): context stays bounded.
  sim::Scheduler sched;
  context::ContextTree tree;
  StageGraph graph(sched, tree);
  std::vector<Elements> a_ctxts;
  int rounds = 0;

  StageId b = 0;
  StageId a = graph.AddStage("a", 1, [&](StageGraph::WorkerContext& wc) -> sim::Task<void> {
    a_ctxts.push_back(context::ElementsOf(tree, wc.current_node()));
    if (++rounds < 4) {
      wc.EnqueueTo(b, wc.payload);
    }
    co_return;
  });
  b = graph.AddStage("b", 1, [&](StageGraph::WorkerContext& wc) -> sim::Task<void> {
    wc.EnqueueTo(a, wc.payload);
    co_return;
  });

  graph.Start();
  graph.InjectExternal(a, 0);
  sched.ScheduleAt(sim::Seconds(1), [&] { graph.Stop(); });
  sched.Run();

  ASSERT_EQ(a_ctxts.size(), 4u);
  for (const auto& c : a_ctxts) {
    EXPECT_LE(c.size(), 2u);
    EXPECT_EQ(c.back(), S(a));
  }
}

TEST(SedaTest, TrackingOffLeavesContextsEmpty) {
  sim::Scheduler sched;
  context::ContextTree tree;
  StageGraph graph(sched, tree);
  graph.set_tracking(false);
  bool saw_empty = false;
  StageId st = graph.AddStage("s", 1, [&](StageGraph::WorkerContext& wc) -> sim::Task<void> {
    saw_empty = wc.current_node() == context::kEmptyContext;
    co_return;
  });
  graph.Start();
  graph.InjectExternal(st, 0);
  sched.ScheduleAt(sim::Seconds(1), [&] { graph.Stop(); });
  sched.Run();
  EXPECT_TRUE(saw_empty);
}

}  // namespace
}  // namespace whodunit::seda
