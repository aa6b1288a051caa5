#include "src/callpath/cct.h"

#include <gtest/gtest.h>

#include "src/callpath/function_registry.h"
#include "src/callpath/sampler.h"
#include "src/callpath/shadow_stack.h"

namespace whodunit::callpath {
namespace {

TEST(CctTest, RootOnlyInitially) {
  CallingContextTree cct;
  EXPECT_EQ(cct.size(), 1u);
  EXPECT_EQ(cct.TotalSamples(), 0u);
}

TEST(CctTest, ChildIsCreatedOnceAndReused) {
  CallingContextTree cct;
  NodeIndex a = cct.Child(cct.root(), 7);
  NodeIndex b = cct.Child(cct.root(), 7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(cct.size(), 2u);
  NodeIndex c = cct.Child(cct.root(), 8);
  EXPECT_NE(a, c);
}

TEST(CctTest, PathNodeBuildsChain) {
  CallingContextTree cct;
  NodeIndex n = cct.PathNode({1, 2, 3});
  EXPECT_EQ(cct.PathTo(n), (std::vector<FunctionId>{1, 2, 3}));
  EXPECT_EQ(cct.size(), 4u);
}

TEST(CctTest, DistinctPathsDistinctNodes) {
  CallingContextTree cct;
  // Same leaf function via two different callers: context sensitivity.
  NodeIndex via_a = cct.PathNode({1, 3});
  NodeIndex via_b = cct.PathNode({2, 3});
  EXPECT_NE(via_a, via_b);
  cct.AddSample(via_a, 5);
  cct.AddSample(via_b, 2);
  EXPECT_EQ(cct.node(via_a).samples, 5u);
  EXPECT_EQ(cct.node(via_b).samples, 2u);
}

TEST(CctTest, InclusiveAggregation) {
  CallingContextTree cct;
  NodeIndex a = cct.PathNode({1});
  NodeIndex ab = cct.PathNode({1, 2});
  NodeIndex ac = cct.PathNode({1, 3});
  cct.AddCpuTime(a, 100);
  cct.AddCpuTime(ab, 50);
  cct.AddCpuTime(ac, 25);
  EXPECT_EQ(cct.InclusiveCpuTime(a), 175);
  EXPECT_EQ(cct.InclusiveCpuTime(ab), 50);
  EXPECT_EQ(cct.TotalCpuTime(), 175);
  cct.AddSample(ab, 4);
  EXPECT_EQ(cct.InclusiveSamples(a), 4u);
}

TEST(CctTest, MergeSumsMatchingNodes) {
  CallingContextTree a, b;
  a.AddSample(a.PathNode({1, 2}), 3);
  b.AddSample(b.PathNode({1, 2}), 4);
  b.AddSample(b.PathNode({9}), 1);
  a.MergeFrom(b);
  EXPECT_EQ(a.node(a.PathNode({1, 2})).samples, 7u);
  EXPECT_EQ(a.node(a.PathNode({9})).samples, 1u);
  EXPECT_EQ(a.TotalSamples(), 8u);
}

TEST(CctTest, RenderContainsNamesAndPercents) {
  FunctionRegistry reg;
  CallingContextTree cct;
  FunctionId main_fn = reg.Intern("main");
  FunctionId work_fn = reg.Intern("work");
  cct.AddCpuTime(cct.PathNode({main_fn, work_fn}), sim::Millis(10));
  std::string text = cct.Render(reg);
  EXPECT_NE(text.find("main"), std::string::npos);
  EXPECT_NE(text.find("work"), std::string::npos);
  EXPECT_NE(text.find("100%"), std::string::npos);
}

TEST(ShadowStackTest, TracksPathAndNode) {
  CallingContextTree cct;
  CallingContextTree paths;
  ShadowStack stack(paths);
  stack.AttachCct(&cct);
  EXPECT_EQ(stack.current_node(), cct.root());
  stack.Push(1);
  stack.Push(2);
  EXPECT_EQ(paths.PathTo(stack.path_id()), (std::vector<FunctionId>{1, 2}));
  EXPECT_EQ(stack.current_node(), cct.PathNode({1, 2}));
  stack.Pop();
  EXPECT_EQ(stack.current_node(), cct.PathNode({1}));
  stack.Pop();
  EXPECT_EQ(stack.depth(), 0u);
}

TEST(ShadowStackTest, DetachedStackStillTracksPath) {
  CallingContextTree paths;
  ShadowStack stack(paths);
  stack.Push(5);
  EXPECT_EQ(stack.depth(), 1u);
  EXPECT_EQ(paths.PathTo(stack.path_id()), (std::vector<FunctionId>{5}));
  EXPECT_EQ(stack.current_node(), kNoNode);
}

TEST(ShadowStackTest, SwitchingCctReplaysLivePath) {
  CallingContextTree cct1, cct2;
  CallingContextTree paths;
  ShadowStack stack(paths);
  stack.AttachCct(&cct1);
  stack.Push(1);
  stack.Push(2);
  // Whodunit switches the thread to a new transaction's CCT mid-call.
  stack.AttachCct(&cct2);
  EXPECT_EQ(stack.current_node(), cct2.PathNode({1, 2}));
  stack.Pop();
  EXPECT_EQ(stack.current_node(), cct2.PathNode({1}));
}

TEST(ShadowStackTest, ScopedFrameBalances) {
  CallingContextTree cct;
  CallingContextTree paths;
  ShadowStack stack(paths);
  stack.AttachCct(&cct);
  {
    ScopedFrame f1(stack, 1);
    {
      ScopedFrame f2(stack, 2);
      EXPECT_EQ(stack.depth(), 2u);
    }
    EXPECT_EQ(stack.depth(), 1u);
  }
  EXPECT_EQ(stack.depth(), 0u);
  EXPECT_EQ(stack.path_id(), paths.root());
  EXPECT_EQ(stack.current_node(), cct.root());
}

TEST(ShadowStackTest, CallCountsRecorded) {
  CallingContextTree cct;
  CallingContextTree paths;
  ShadowStack stack(paths);
  stack.AttachCct(&cct);
  for (int i = 0; i < 3; ++i) {
    ScopedFrame f(stack, 1);
  }
  EXPECT_EQ(cct.node(cct.PathNode({1})).calls, 3u);
}

TEST(SamplerTest, SamplesAtConfiguredPeriod) {
  CallingContextTree cct;
  CallingContextTree paths;
  ShadowStack stack(paths);
  stack.AttachCct(&cct);
  Sampler sampler(/*period=*/100);
  stack.Push(1);
  sampler.OnCpu(stack, 250);
  EXPECT_EQ(sampler.samples_taken(), 2u);
  sampler.OnCpu(stack, 50);  // residue 50 + 50 = 100 -> one more
  EXPECT_EQ(sampler.samples_taken(), 3u);
  EXPECT_EQ(cct.node(cct.PathNode({1})).samples, 3u);
  EXPECT_EQ(cct.node(cct.PathNode({1})).cpu_time, 300);
}

TEST(SamplerTest, AttributesToCurrentNode) {
  CallingContextTree cct;
  CallingContextTree paths;
  ShadowStack stack(paths);
  stack.AttachCct(&cct);
  Sampler sampler(100);
  stack.Push(1);
  sampler.OnCpu(stack, 100);
  stack.Push(2);
  sampler.OnCpu(stack, 200);
  EXPECT_EQ(cct.node(cct.PathNode({1})).samples, 1u);
  EXPECT_EQ(cct.node(cct.PathNode({1, 2})).samples, 2u);
}

TEST(SamplerTest, DetachedChargesAreDropped) {
  CallingContextTree paths;
  ShadowStack stack(paths);
  Sampler sampler(100);
  sampler.OnCpu(stack, 1000);
  EXPECT_EQ(sampler.samples_taken(), 0u);
}

TEST(SamplerTest, ZeroAndNegativeCostsIgnored) {
  CallingContextTree cct;
  CallingContextTree paths;
  ShadowStack stack(paths);
  stack.AttachCct(&cct);
  Sampler sampler(100);
  sampler.OnCpu(stack, 0);
  sampler.OnCpu(stack, -5);
  EXPECT_EQ(sampler.samples_taken(), 0u);
  EXPECT_EQ(cct.TotalCpuTime(), 0);
}

}  // namespace
}  // namespace whodunit::callpath
