// Tests for the call-path tree, the CCTs counting over it, the shadow
// stack and the sampler, plus a differential test of all four against
// a test-local reference: a map from function-vector path to counters,
// where attaching a CCT holds the current path and all its prefixes.
#include "src/callpath/cct.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/callpath/function_registry.h"
#include "src/callpath/sampler.h"
#include "src/callpath/shadow_stack.h"
#include "src/profiler/profile_io.h"
#include "src/profiler/stage_profiler.h"
#include "src/util/rng.h"

namespace whodunit::callpath {
namespace {

// Finds or creates a whole path below the root.
PathId PathOf(PathTree& paths, const std::vector<FunctionId>& path) {
  PathId p = paths.root();
  for (FunctionId f : path) {
    p = paths.Child(p, f);
  }
  return p;
}

// Holds `path` in cct and returns its id.
PathId HoldPath(PathTree& paths, CallingContextTree& cct, const std::vector<FunctionId>& path) {
  const PathId p = PathOf(paths, path);
  cct.Hold(paths, p);
  return p;
}

TEST(PathTreeTest, ChildIsCreatedOnceAndReused) {
  PathTree paths;
  EXPECT_EQ(paths.size(), 1u);
  PathId a = paths.Child(paths.root(), 7);
  EXPECT_EQ(paths.Child(paths.root(), 7), a);
  EXPECT_EQ(paths.size(), 2u);
  EXPECT_NE(paths.Child(paths.root(), 8), a);
  EXPECT_EQ(paths.parent(a), paths.root());
  EXPECT_EQ(paths.function(a), 7u);
}

TEST(PathTreeTest, ChainHasIncreasingIds) {
  PathTree paths;
  PathId n = PathOf(paths, {1, 2, 3});
  EXPECT_EQ(paths.PathTo(n), (std::vector<FunctionId>{1, 2, 3}));
  EXPECT_EQ(paths.size(), 4u);
  for (PathId p = n; p != paths.root(); p = paths.parent(p)) {
    EXPECT_LT(paths.parent(p), p);
  }
}

TEST(CctTest, RootOnlyInitially) {
  CallingContextTree cct;
  EXPECT_EQ(cct.size(), 1u);
  EXPECT_TRUE(cct.holds(0));
  EXPECT_EQ(cct.TotalSamples(), 0u);
}

TEST(CctTest, HoldAddsAncestorsOnce) {
  PathTree paths;
  CallingContextTree cct;
  const PathId abc = HoldPath(paths, cct, {1, 2, 3});
  EXPECT_EQ(cct.size(), 4u);
  HoldPath(paths, cct, {1, 2, 4});
  EXPECT_EQ(cct.size(), 5u);
  EXPECT_TRUE(cct.holds(abc));
  EXPECT_TRUE(cct.holds(paths.parent(abc)));
  EXPECT_FALSE(cct.holds(paths.Child(abc, 5)));
}

TEST(CctTest, DistinctPathsDistinctCounters) {
  PathTree paths;
  CallingContextTree cct;
  // Same leaf function via two different callers: context sensitivity.
  const PathId via_a = HoldPath(paths, cct, {1, 3});
  const PathId via_b = HoldPath(paths, cct, {2, 3});
  EXPECT_NE(via_a, via_b);
  cct.Add(via_a, {.samples = 5});
  cct.Add(via_b, {.samples = 2});
  EXPECT_EQ(cct.at(via_a).samples, 5u);
  EXPECT_EQ(cct.at(via_b).samples, 2u);
}

TEST(CctTest, InclusiveAggregation) {
  PathTree paths;
  CallingContextTree cct;
  const PathId a = HoldPath(paths, cct, {1});
  const PathId ab = HoldPath(paths, cct, {1, 2});
  const PathId ac = HoldPath(paths, cct, {1, 3});
  cct.Add(a, {.cpu_time = 100});
  cct.Add(ab, {.samples = 4, .cpu_time = 50});
  cct.Add(ac, {.cpu_time = 25});
  const std::vector<PathCounters> inclusive = cct.Inclusive(paths);
  EXPECT_EQ(inclusive[a].cpu_time, 175);
  EXPECT_EQ(inclusive[ab].cpu_time, 50);
  EXPECT_EQ(inclusive[a].samples, 4u);
  EXPECT_EQ(cct.TotalCpuTime(), 175);
}

TEST(CctTest, MergeSumsMatchingPaths) {
  PathTree paths;
  CallingContextTree a, b;
  a.Add(HoldPath(paths, a, {1, 2}), {.samples = 3});
  b.Add(HoldPath(paths, b, {1, 2}), {.samples = 4});
  b.Add(HoldPath(paths, b, {9}), {.samples = 1});
  a.MergeFrom(b);
  EXPECT_EQ(a.at(PathOf(paths, {1, 2})).samples, 7u);
  EXPECT_EQ(a.at(PathOf(paths, {9})).samples, 1u);
  EXPECT_EQ(a.TotalSamples(), 8u);
  EXPECT_EQ(a.size(), 4u);
}

TEST(CctTest, RenderVisitsChildrenInFunctionIdOrder) {
  FunctionRegistry reg;
  PathTree paths;
  CallingContextTree cct;
  const FunctionId main_fn = reg.Intern("main");
  const FunctionId work_fn = reg.Intern("work");
  const FunctionId idle_fn = reg.Intern("idle");
  // Created idle first, so path ids disagree with FunctionId order.
  cct.Add(HoldPath(paths, cct, {main_fn, idle_fn}), {.cpu_time = sim::Millis(10)});
  cct.Add(HoldPath(paths, cct, {main_fn, work_fn}),
          {.samples = 3, .cpu_time = sim::Millis(30)});
  EXPECT_EQ(cct.Render(paths, reg),
            "main  samples=3 cpu=40ms (100%)\n"
            "  work  samples=3 cpu=30ms (75%)\n"
            "  idle  samples=0 cpu=10ms (25%)\n");
  // Below 30% of the total, idle is elided.
  EXPECT_EQ(cct.Render(paths, reg, 0.3),
            "main  samples=3 cpu=40ms (100%)\n"
            "  work  samples=3 cpu=30ms (75%)\n");
}

TEST(CctTest, SwitchedAwayAtDepthThreeRendersThreeZeroRows) {
  FunctionRegistry reg;
  PathTree paths;
  ShadowStack stack(paths);
  for (const char* name : {"a", "b", "c"}) {
    stack.Push(reg.Intern(name));
  }
  CallingContextTree held, next;
  stack.AttachCct(&held);
  stack.AttachCct(&next);
  EXPECT_EQ(held.Render(paths, reg),
            "a  samples=0 cpu=0ms\n"
            "  b  samples=0 cpu=0ms\n"
            "    c  samples=0 cpu=0ms\n");
}

TEST(ShadowStackTest, TracksPathAndCountsCalls) {
  CallingContextTree cct;
  PathTree paths;
  ShadowStack stack(paths);
  stack.AttachCct(&cct);
  stack.Push(1);
  stack.Push(2);
  EXPECT_EQ(paths.PathTo(stack.path_id()), (std::vector<FunctionId>{1, 2}));
  EXPECT_TRUE(cct.holds(stack.path_id()));
  EXPECT_EQ(cct.at(stack.path_id()).calls, 1u);
  stack.Pop();
  EXPECT_EQ(paths.PathTo(stack.path_id()), (std::vector<FunctionId>{1}));
  stack.Pop();
  EXPECT_EQ(stack.depth(), 0u);
  EXPECT_EQ(stack.path_id(), paths.root());
}

TEST(ShadowStackTest, DetachedStackStillTracksPath) {
  PathTree paths;
  ShadowStack stack(paths);
  stack.Push(5);
  EXPECT_EQ(stack.depth(), 1u);
  EXPECT_EQ(paths.PathTo(stack.path_id()), (std::vector<FunctionId>{5}));
  EXPECT_EQ(stack.cct(), nullptr);
}

TEST(ShadowStackTest, ScopedFrameBalances) {
  PathTree paths;
  ShadowStack stack(paths);
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
}

TEST(SamplerTest, SamplesAtConfiguredPeriod) {
  CallingContextTree cct;
  PathTree paths;
  ShadowStack stack(paths);
  stack.AttachCct(&cct);
  Sampler sampler(/*period=*/100);
  stack.Push(1);
  sampler.OnCpu(stack, 250);
  EXPECT_EQ(sampler.samples_taken(), 2u);
  sampler.OnCpu(stack, 50);  // residue 50 + 50 = 100 -> one more
  EXPECT_EQ(sampler.samples_taken(), 3u);
  EXPECT_EQ(cct.at(stack.path_id()).samples, 3u);
  EXPECT_EQ(cct.at(stack.path_id()).cpu_time, 300);
}

TEST(SamplerTest, DetachedAndNonPositiveChargesAreDropped) {
  CallingContextTree cct;
  PathTree paths;
  ShadowStack stack(paths);
  Sampler sampler(100);
  sampler.OnCpu(stack, 1000);
  stack.AttachCct(&cct);
  sampler.OnCpu(stack, 0);
  sampler.OnCpu(stack, -5);
  EXPECT_EQ(sampler.samples_taken(), 0u);
  EXPECT_EQ(cct.TotalCpuTime(), 0);
}

// ---- Differential test against a path-map reference ------------------

using RefCct = std::map<std::vector<FunctionId>, PathCounters>;

// Holds `path` and all its prefixes in the reference.
void RefHold(RefCct& ref, std::vector<FunctionId> path) {
  for (;; path.pop_back()) {
    ref[path];
    if (path.empty()) {
      return;
    }
  }
}

void ExpectSameCounters(const PathCounters& got, const PathCounters& want,
                        const std::string& where) {
  EXPECT_EQ(got.samples, want.samples) << where;
  EXPECT_EQ(got.cpu_time, want.cpu_time) << where;
  EXPECT_EQ(got.calls, want.calls) << where;
}

// The CCT's held set, exclusive counters, inclusive totals and grand
// totals equal the reference's.
void ExpectMatches(const PathTree& paths, const CallingContextTree& cct, const RefCct& ref,
                   const std::string& where) {
  std::map<std::vector<FunctionId>, PathId> held;
  for (PathId p = 0; p < cct.id_limit(); ++p) {
    if (cct.holds(p)) {
      held[paths.PathTo(p)] = p;
    }
  }
  ASSERT_EQ(held.size(), ref.size()) << where;
  EXPECT_EQ(cct.size(), ref.size()) << where;
  const std::vector<PathCounters> inclusive = cct.Inclusive(paths);
  PathCounters total;
  for (const auto& [path, want] : ref) {
    auto it = held.find(path);
    ASSERT_NE(it, held.end()) << where << ": a reference path is not held";
    ExpectSameCounters(cct.at(it->second), want, where);
    PathCounters below;
    for (const auto& [other, c] : ref) {
      if (other.size() >= path.size() && std::equal(path.begin(), path.end(), other.begin())) {
        below += c;
      }
    }
    ExpectSameCounters(inclusive[it->second], below, where + " (inclusive)");
    total += want;
  }
  EXPECT_EQ(cct.TotalSamples(), total.samples) << where;
  EXPECT_EQ(cct.TotalCpuTime(), total.cpu_time) << where;
}

TEST(CctDifferentialTest, RandomStackOpsMatchPathMapReference) {
  constexpr sim::SimTime kPeriod = 100;
  constexpr int kCcts = 3;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    PathTree paths;
    ShadowStack stack(paths);
    Sampler sampler(kPeriod);
    std::vector<CallingContextTree> ccts(kCcts);
    std::vector<RefCct> refs(kCcts);
    for (RefCct& ref : refs) {
      RefHold(ref, {});  // a CCT holds the root from the start
    }
    std::vector<FunctionId> path;
    int attached = -1;
    sim::SimTime residue = 0;
    for (int op = 0; op < 2000; ++op) {
      const std::string where = "seed " + std::to_string(seed) + " op " + std::to_string(op);
      switch (rng.NextBelow(4)) {
        case 0:
          if (path.size() < 6) {
            const auto f = static_cast<FunctionId>(1 + rng.NextBelow(4));
            stack.Push(f);
            path.push_back(f);
            if (attached >= 0) {
              RefHold(refs[attached], path);
              ++refs[attached][path].calls;
            }
          }
          break;
        case 1:
          if (!path.empty()) {
            stack.Pop();
            path.pop_back();
          }
          break;
        case 2:
          attached = static_cast<int>(rng.NextBelow(kCcts + 1)) - 1;
          stack.AttachCct(attached >= 0 ? &ccts[attached] : nullptr);
          if (attached >= 0) {
            RefHold(refs[attached], path);
          }
          break;
        default: {
          const auto cost = static_cast<sim::SimTime>(1 + rng.NextBelow(300));
          sampler.OnCpu(stack, cost);
          if (attached >= 0) {
            residue += cost;
            PathCounters& c = refs[attached][path];
            c.cpu_time += cost;
            c.samples += static_cast<uint64_t>(residue / kPeriod);
            residue %= kPeriod;
          }
        }
      }
      ASSERT_EQ(paths.PathTo(stack.path_id()), path) << where;
      if (op % 100 == 99) {
        for (int k = 0; k < kCcts; ++k) {
          ExpectMatches(paths, ccts[k], refs[k], where + " cct " + std::to_string(k));
        }
      }
    }
  }
}

}  // namespace
}  // namespace whodunit::callpath

namespace whodunit::profiler {
namespace {

using callpath::FunctionId;
using callpath::PathCounters;
using callpath::RefCct;
using callpath::RefHold;

// Reference CCTs by label, in LabeledCcts' order.
struct ByParts {
  bool operator()(const context::Synopsis& a, const context::Synopsis& b) const {
    return a.parts < b.parts;
  }
};
using LabeledRefs = std::map<context::Synopsis, RefCct, ByParts>;

// The serialized form of reference CCTs: std::map orders paths
// lexicographically, which is preorder with children in FunctionId
// order, as the writer walks.
std::string RefProfileText(const LabeledRefs& labeled,
                           const callpath::FunctionRegistry& functions) {
  std::string out = "whodunit-profile 2\nstage s\nbytes 0 0\n";
  for (FunctionId f = 1; f < functions.size(); ++f) {
    out += "function " + std::to_string(f) + " " + functions.Name(f) + "\n";
  }
  for (const auto& [label, ref] : labeled) {
    out += "cct " + (label.empty() ? std::string("-") : label.ToString()) + "\n";
    std::map<std::vector<FunctionId>, size_t> line;
    for (const auto& [path, c] : ref) {
      const size_t index = line.size();
      line[path] = index;
      if (path.empty()) {
        continue;
      }
      const std::vector<FunctionId> parent(path.begin(), path.end() - 1);
      out += "node " + std::to_string(index) + " " + std::to_string(line.at(parent)) + " " +
             std::to_string(path.back()) + " " + std::to_string(c.samples) + " " +
             std::to_string(c.cpu_time) + " " + std::to_string(c.calls) + "\n";
    }
  }
  return out + "end\n";
}

// A re-read profile's CCTs as references over the writer's FunctionIds.
LabeledRefs RefOf(const Profile& loaded, const callpath::FunctionRegistry& functions) {
  LabeledRefs out;
  for (const auto& [label, cct] : loaded.stages.at(0).rows) {
    RefCct& ref = out[label];
    for (callpath::PathId p = 0; p < cct.id_limit(); ++p) {
      if (cct.holds(p)) {
        std::vector<FunctionId> path;
        for (FunctionId f : loaded.paths.PathTo(p)) {
          path.push_back(functions.Find(loaded.functions.Name(f)));
        }
        ref[path] = cct.at(p);
      }
    }
  }
  return out;
}

StageProfiler::Options StageOptions() {
  StageProfiler::Options options;
  options.name = "s";
  options.sample_period = 100;
  return options;
}

// Random frames, context switches and CPU charges through a stage
// profiler; the written profile must equal the reference's text, and
// re-reading and re-writing it must give the same text back.
TEST(CctDifferentialTest, ProfileRoundTripMatchesReference) {
  constexpr sim::SimTime kPeriod = 100;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    util::Rng rng(seed);
    Deployment dep;
    StageProfiler stage(dep, StageOptions());
    ThreadProfile& tp = stage.CreateThread("t");
    std::vector<FunctionId> fns;
    for (const char* name : {"main", "parse", "query", "sort"}) {
      fns.push_back(stage.RegisterFunction(name));
    }
    const std::vector<context::NodeId> nodes = {
        context::kEmptyContext,
        dep.contexts().Append(context::kEmptyContext, {context::ElementKind::kHandler, 1}),
        dep.contexts().Append(context::kEmptyContext, {context::ElementKind::kHandler, 2})};
    std::vector<RefCct> refs(nodes.size());
    size_t current = 0;
    RefHold(refs[current], {});
    std::vector<std::unique_ptr<StageProfiler::FrameGuard>> frames;
    std::vector<FunctionId> path;
    sim::SimTime residue = 0;
    for (int op = 0; op < 500; ++op) {
      switch (rng.NextBelow(4)) {
        case 0:
          if (path.size() < 5) {
            const FunctionId f = fns[rng.NextBelow(fns.size())];
            frames.push_back(std::make_unique<StageProfiler::FrameGuard>(stage, tp, f));
            path.push_back(f);
            RefHold(refs[current], path);
            ++refs[current][path].calls;
          }
          break;
        case 1:
          if (!path.empty()) {
            frames.pop_back();
            path.pop_back();
          }
          break;
        case 2:
          current = rng.NextBelow(nodes.size());
          stage.SetLocalContext(tp, nodes[current]);
          RefHold(refs[current], path);
          break;
        default: {
          const auto cost = static_cast<sim::SimTime>(1 + rng.NextBelow(300));
          stage.ChargeCpu(tp, cost);
          residue += cost;
          PathCounters& c = refs[current][path];
          c.cpu_time += cost;
          c.samples += static_cast<uint64_t>(residue / kPeriod);
          residue %= kPeriod;
        }
      }
    }
    // Labels as the stage computes them; LabeledCcts skips a CCT that
    // holds only the root and never counted anything.
    LabeledRefs labeled;
    for (size_t k = 0; k < nodes.size(); ++k) {
      PathCounters total;
      for (const auto& [p, c] : refs[k]) {
        total += c;
      }
      if (refs[k].size() > 1 || total.cpu_time != 0 || total.samples != 0) {
        labeled[k == 0 ? context::Synopsis{}
                       : context::Synopsis{{dep.synopses().Intern(nodes[k])}}] = refs[k];
      }
    }
    const std::string text = SerializeProfile(stage);
    EXPECT_EQ(text, RefProfileText(labeled, dep.functions())) << "seed " << seed;
    Profile loaded;
    ASSERT_TRUE(ParseProfile(text, &loaded)) << "seed " << seed;
    EXPECT_EQ(RefProfileText(RefOf(loaded, dep.functions()), dep.functions()), text)
        << "seed " << seed;
  }
}

TEST(CctDifferentialTest, RootOnlyCctIsSkippedByLabeledCcts) {
  Deployment dep;
  StageProfiler stage(dep, StageOptions());
  ThreadProfile& tp = stage.CreateThread("t");  // attaches the origin CCT at the root
  const context::NodeId node =
      dep.contexts().Append(context::kEmptyContext, {context::ElementKind::kHandler, 1});
  stage.SetLocalContext(tp, node);
  {
    auto frame = stage.EnterFrame(tp, stage.RegisterFunction("work"));
    stage.ChargeCpu(tp, 250);
  }
  const callpath::CallingContextTree* origin = stage.FindCct({});
  ASSERT_NE(origin, nullptr);
  EXPECT_EQ(origin->size(), 1u);
  const auto labeled = stage.LabeledCcts();
  ASSERT_EQ(labeled.size(), 1u);
  EXPECT_EQ(labeled[0].first, context::Synopsis{{dep.synopses().Intern(node)}});
  EXPECT_EQ(labeled[0].second->TotalCpuTime(), 250);
}

}  // namespace
}  // namespace whodunit::profiler
