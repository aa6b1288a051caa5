// Tests for profile serialization and the post-mortem presentation
// phase (paper §7.1: profiles written at exit, stitched offline).
#include "src/profiler/profile_io.h"

#include <gtest/gtest.h>

#include "src/callpath/gprof_report.h"
#include "src/profiler/stitcher.h"

namespace whodunit::profiler {
namespace {

using context::Synopsis;

StageProfiler::Options Opts(std::string name) {
  StageProfiler::Options o;
  o.name = std::move(name);
  o.sample_period = 100;
  return o;
}

// Builds a two-stage deployment with some profile data, as the RPC
// tests do.
struct Rig {
  Deployment dep;
  StageProfiler& caller;
  StageProfiler& callee;
  Synopsis request;

  Rig()
      : caller(dep.AddStage(std::make_unique<StageProfiler>(dep, Opts("caller")))),
        callee(dep.AddStage(std::make_unique<StageProfiler>(dep, Opts("callee")))) {
    ThreadProfile& ct = caller.CreateThread("c");
    ThreadProfile& st = callee.CreateThread("s");
    auto main_fn = caller.RegisterFunction("main");
    auto foo_fn = caller.RegisterFunction("foo");
    auto svc_fn = callee.RegisterFunction("svc");
    {
      auto f0 = caller.EnterFrame(ct, main_fn);
      caller.ChargeCpu(ct, 1000);
      auto f1 = caller.EnterFrame(ct, foo_fn);
      request = caller.PrepareSend(ct);
    }
    caller.AccountMessage(500, request.WireBytes());
    callee.OnReceive(st, request);
    {
      auto g = callee.EnterFrame(st, svc_fn);
      callee.ChargeCpu(st, 2500);
    }
  }
};

// A profile re-read from the stages' files and the dictionary.
Profile Reread(const Deployment& dep) {
  Profile profile;
  for (const auto& stage : dep.stages()) {
    EXPECT_TRUE(ParseProfile(SerializeProfile(*stage), &profile)) << stage->name();
  }
  EXPECT_TRUE(ParseDictionary(SerializeDictionary(dep), &profile));
  return profile;
}

TEST(ProfileIoTest, SerializeParseRoundTrip) {
  Rig rig;
  std::string text = SerializeProfile(rig.callee);
  EXPECT_NE(text.find("whodunit-profile 2"), std::string::npos);
  EXPECT_NE(text.find("stage callee"), std::string::npos);

  Profile loaded;
  ASSERT_TRUE(ParseProfile(text, &loaded));
  ASSERT_EQ(loaded.stages.size(), 1u);
  EXPECT_EQ(loaded.stages[0].name, "callee");
  const auto& rows = loaded.stages[0].rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].label, rig.request);
  EXPECT_EQ(rows[0].cct.TotalCpuTime(), 2500);
  EXPECT_EQ(rows[0].cct.TotalSamples(), 25u);
  // The whole function table survived, ids included.
  EXPECT_EQ(loaded.functions.Find("svc"), rig.dep.functions().Find("svc"));
  EXPECT_EQ(loaded.functions.Find("main"), rig.dep.functions().Find("main"));
}

TEST(ProfileIoTest, ByteCountersRoundTrip) {
  Rig rig;
  Profile loaded;
  ASSERT_TRUE(ParseProfile(SerializeProfile(rig.caller), &loaded));
  EXPECT_EQ(loaded.stages[0].payload_bytes, 500u);
  EXPECT_EQ(loaded.stages[0].context_bytes, rig.request.WireBytes());
}

TEST(ProfileIoTest, DictionaryRoundTrip) {
  Rig rig;
  std::string text = SerializeDictionary(rig.dep);
  Profile profile;
  ASSERT_TRUE(ParseDictionary(text, &profile));
  ASSERT_FALSE(profile.parts.empty());
  // The send point's call path is described.
  bool mentions_foo = false;
  for (const auto& [id, desc] : profile.parts) {
    if (desc.find("foo") != std::string::npos) {
      mentions_foo = true;
    }
  }
  EXPECT_TRUE(mentions_foo);
}

TEST(ProfileIoTest, MalformedInputsRejected) {
  Profile loaded;
  EXPECT_FALSE(ParseProfile("", &loaded));
  EXPECT_FALSE(ParseProfile("not-a-profile\n", &loaded));
  EXPECT_FALSE(ParseProfile("whodunit-profile 2\nstage x\n", &loaded));  // no end
  EXPECT_FALSE(ParseProfile("whodunit-profile 2\nstage x\nfunction 1 f\nnode 0 0 1 1 1 1\nend\n",
                            &loaded));  // node before cct
  EXPECT_FALSE(ParseDictionary("garbage", &loaded));
}

// Re-emits a loaded stage in the serialized line format (children in
// ascending path-id order, which matches the writer's for single-child
// chains).
void RenderSubtree(const Profile& p, const callpath::CallingContextTree& cct,
                   callpath::PathId node, callpath::PathId parent_out,
                   callpath::PathId& next_out, std::string& out) {
  const callpath::PathCounters& n = cct.at(node);
  const callpath::PathId my_out = next_out++;
  if (node != p.paths.root()) {
    out += "node " + std::to_string(my_out) + " " + std::to_string(parent_out) + " " +
           std::to_string(p.paths.function(node)) + " " + std::to_string(n.samples) + " " +
           std::to_string(n.cpu_time) + " " + std::to_string(n.calls) + "\n";
  }
  for (callpath::PathId child = node + 1; child < cct.id_limit(); ++child) {
    if (cct.holds(child) && p.paths.parent(child) == node) {
      RenderSubtree(p, cct, child, my_out, next_out, out);
    }
  }
}

std::string Render(const Profile& p) {
  const Profile::Stage& stage = p.stages.at(0);
  std::string out = "whodunit-profile 2\nstage " + stage.name + "\nbytes " +
                    std::to_string(stage.payload_bytes) + " " +
                    std::to_string(stage.context_bytes) + "\n";
  for (callpath::FunctionId f = 1; f < p.functions.size(); ++f) {
    out += "function " + std::to_string(f) + " " + p.functions.Name(f) + "\n";
  }
  for (const Profile::Row& row : stage.rows) {
    out += "cct " + (row.label.parts.empty() ? std::string("-") : row.label.ToString()) + "\n";
    callpath::PathId next_out = 0;
    RenderSubtree(p, row.cct, p.paths.root(), 0, next_out, out);
  }
  return out + "end\n";
}

std::string Render(const std::map<uint32_t, std::string>& dict) {
  std::string out = "whodunit-dictionary 1\n";
  for (const auto& [id, desc] : dict) {
    out += "part " + std::to_string(id) + (desc.empty() ? "" : " " + desc) + "\n";
  }
  return out + "end\n";
}

constexpr const char* kProfile =
    "whodunit-profile 2\n"
    "stage s\n"
    "bytes 10 20\n"
    "function 1 main\n"
    "function 2 foo\n"
    "function 3 idle\n"
    "cct 1#2\n"
    "node 1 0 1 3 40 5\n"
    "node 2 1 2 1 10 1\n"
    "cct -\n"
    "node 1 0 3 0 7 0\n"
    "end\n";

constexpr const char* kDictionary =
    "whodunit-dictionary 1\n"
    "part 0 listener\n"
    "part 1 worker/handle\n"
    "part 4294967295\n"
    "end\n";

// `text` with its line `line` (0-based) replaced by `with`.
std::string LineWith(std::string text, int line, const std::string& with) {
  size_t begin = 0;
  for (int i = 0; i < line; ++i) {
    begin = text.find('\n', begin) + 1;
  }
  return text.replace(begin, text.find('\n', begin) - begin, with);
}

std::string ProfileWith(int line, const std::string& with) {
  return LineWith(kProfile, line, with);
}

TEST(ProfileIoTest, ParsersAcceptValidAndRejectMalformedInput) {
  // Valid inputs round-trip: the writer's output and the fixtures.
  Rig rig;
  for (const StageProfiler* stage : {&rig.caller, &rig.callee}) {
    const std::string text = SerializeProfile(*stage);
    Profile loaded;
    ASSERT_TRUE(ParseProfile(text, &loaded)) << text;
    EXPECT_EQ(Render(loaded), text);
  }
  Profile fixture;
  ASSERT_TRUE(ParseProfile(kProfile, &fixture));
  EXPECT_EQ(Render(fixture), kProfile);
  for (const std::string& text : {SerializeDictionary(rig.dep), std::string(kDictionary)}) {
    Profile profile;
    ASSERT_TRUE(ParseDictionary(text, &profile)) << text;
    EXPECT_EQ(Render(profile.parts), text);
  }

  // A count at the top of its range is valid and added in one step.
  Profile big;
  ASSERT_TRUE(ParseProfile(ProfileWith(7, "node 1 0 1 3 40 18446744073709551615"), &big));
  EXPECT_EQ(big.stages[0].rows[0].cct.at(1).calls, UINT64_MAX);

  const struct {
    const char* what;
    std::string text;
  } bad_profiles[] = {
      {"calls -1", ProfileWith(7, "node 1 0 1 3 40 -1")},
      {"calls past uint64", ProfileWith(7, "node 1 0 1 3 40 18446744073709551616")},
      {"calls not a number", ProfileWith(7, "node 1 0 1 3 40 many")},
      {"calls with trailing text", ProfileWith(7, "node 1 0 1 3 40 5x")},
      {"samples -1", ProfileWith(7, "node 1 0 1 -1 40 5")},
      {"cpu past int64", ProfileWith(7, "node 1 0 1 3 9223372036854775808 5")},
      {"node index past uint32", ProfileWith(7, "node 4294967296 0 1 3 40 5")},
      {"node field missing", ProfileWith(7, "node 1 0 1 3 40")},
      {"node field extra", ProfileWith(7, "node 1 0 1 3 40 5 6")},
      {"unknown parent", ProfileWith(8, "node 2 9 2 1 10 1")},
      {"reused node index", ProfileWith(8, "node 1 1 2 1 10 1")},
      {"same path twice", ProfileWith(8, "node 2 0 1 1 10 1")},
      {"node before cct", ProfileWith(6, "node 9 0 1 1 1 1")},
      {"node function by name", ProfileWith(7, "node 1 0 main 3 40 5")},
      {"node function 0", ProfileWith(7, "node 1 0 0 3 40 5")},
      {"node function past the table", ProfileWith(7, "node 1 0 4 3 40 5")},
      {"node function before its table line",
       "whodunit-profile 2\nstage s\nfunction 1 main\ncct -\nnode 1 0 2 0 7 0\n"
       "function 2 foo\nend\n"},
      {"function id skipped", ProfileWith(4, "function 3 foo")},
      {"function id 0", ProfileWith(3, "function 0 main")},
      {"function id not a number", ProfileWith(3, "function one main")},
      {"function name missing", ProfileWith(3, "function 1")},
      {"function name split", ProfileWith(3, "function 1 ma in")},
      {"function name repeated", ProfileWith(4, "function 2 main")},
      {"label part past uint32", ProfileWith(6, "cct 4294967296")},
      {"label part not a number", ProfileWith(6, "cct 1#x")},
      {"label empty part", ProfileWith(6, "cct 1##2")},
      {"label trailing #", ProfileWith(6, "cct 1#")},
      {"label missing", ProfileWith(6, "cct")},
      {"stage name missing", ProfileWith(1, "stage")},
      {"stage name split", ProfileWith(1, "stage a b")},
      {"stage missing", ProfileWith(1, "")},
      {"second stage", ProfileWith(2, "stage t")},
      {"bytes not a number", ProfileWith(2, "bytes ten 20")},
      {"bytes negative", ProfileWith(2, "bytes 10 -20")},
      {"bytes field missing", ProfileWith(2, "bytes 10")},
      {"unknown line", ProfileWith(2, "weight 3")},
      {"version 1 header", ProfileWith(0, "whodunit-profile 1")},
      {"wrong header", ProfileWith(0, "whodunit-profile 3")},
      {"end with trailing field", ProfileWith(11, "end now")},
  };
  for (const auto& c : bad_profiles) {
    Profile loaded;
    EXPECT_FALSE(ParseProfile(c.text, &loaded)) << c.what;
  }
  const std::string profile = kProfile;
  for (size_t n = 0; n < profile.size(); ++n) {
    Profile loaded;
    EXPECT_FALSE(ParseProfile(profile.substr(0, n), &loaded)) << "truncated to " << n;
  }

  // A second file's function table must agree with the first's: the
  // same table, or a prefix or an extension of it, reads; a table that
  // names an id differently conflicts.
  const std::string second = LineWith(kProfile, 1, "stage t");
  const struct {
    const char* what;
    std::string text;
    bool valid;
  } second_files[] = {
      {"same table", second, true},
      {"longer table", LineWith(second, 5, "function 3 idle\nfunction 4 more"), true},
      {"shorter table", LineWith(LineWith(second, 10, "node 1 0 1 0 7 0"), 5, ""), true},
      {"renamed entry", LineWith(second, 4, "function 2 bar"), false},
      {"swapped entries", LineWith(LineWith(second, 3, "function 1 foo"), 4, "function 2 main"),
       false},
  };
  for (const auto& c : second_files) {
    Profile loaded;
    ASSERT_TRUE(ParseProfile(kProfile, &loaded));
    EXPECT_EQ(ParseProfile(c.text, &loaded), c.valid) << c.what;
  }

  const char* bad_dictionaries[] = {
      "whodunit-dictionary 1\npart abc x\nend\n",
      "whodunit-dictionary 1\npart\nend\n",
      "whodunit-dictionary 1\npart -1 x\nend\n",
      "whodunit-dictionary 1\npart 4294967296 x\nend\n",
      "whodunit-dictionary 1\npart 7x x\nend\n",
      "whodunit-dictionary 1\npart 1 two words\nend\n",
      "whodunit-dictionary 1\nsection 1 x\nend\n",
      "whodunit-dictionary 2\nend\n",
      "garbage",
  };
  for (const char* text : bad_dictionaries) {
    Profile loaded;
    EXPECT_FALSE(ParseDictionary(text, &loaded)) << text;
  }
  const std::string dictionary = kDictionary;
  for (size_t n = 0; n < dictionary.size(); ++n) {
    Profile loaded;
    EXPECT_FALSE(ParseDictionary(dictionary.substr(0, n), &loaded)) << "truncated to " << n;
  }
}

TEST(ProfileIoTest, PostMortemReportIsTheLiveReport) {
  Rig rig;
  const Profile profile = Reread(rig.dep);
  const std::string report = Stitcher(profile).Render();
  EXPECT_EQ(report, Stitcher(rig.dep).Render());
  EXPECT_EQ(Stitcher(profile).RenderDot(), Stitcher(rig.dep).RenderDot());
  // The request edge caller -> callee was recovered offline.
  EXPECT_NE(report.find("  caller (origin) --[main>foo]--> callee "), std::string::npos)
      << report;
}

// A stage's origin CCT holds only `b`; its next CCT holds `a` (300 ns)
// and `b` (200 ns). Siblings render in the writer's FunctionId order,
// `a` before `b`, live and post mortem alike.
TEST(ProfileIoTest, PostMortemKeepsTheWritersSiblingOrder) {
  Deployment dep;
  StageProfiler& stage = dep.AddStage(std::make_unique<StageProfiler>(dep, Opts("s")));
  ThreadProfile& tp = stage.CreateThread("t");
  const callpath::FunctionId a = stage.RegisterFunction("a");
  const callpath::FunctionId b = stage.RegisterFunction("b");
  {
    auto frame = stage.EnterFrame(tp, b);
    stage.ChargeCpu(tp, 100);
  }
  stage.SetLocalContext(
      tp, dep.contexts().Append(context::kEmptyContext, {context::ElementKind::kHandler, 1}));
  {
    auto frame = stage.EnterFrame(tp, a);
    stage.ChargeCpu(tp, 300);
  }
  {
    auto frame = stage.EnterFrame(tp, b);
    stage.ChargeCpu(tp, 200);
  }
  const std::string live = stage.RenderTransactionalProfile();
  const std::string section = live.substr(live.find("--- context [handler:1]"));
  ASSERT_LT(section.find("\na  samples=3"), section.find("\nb  samples=2")) << live;

  const Profile profile = Reread(dep);
  EXPECT_EQ(Stitcher(profile).RenderStage("s"), live);
  EXPECT_EQ(Stitcher(profile).Render(), Stitcher(dep).Render());
}

// The conventional flat profile of a stage: every context's CCT merged
// into one tree, rendered by the gprof renderer; only the "Flat
// profile:" part, up to the call graph.
std::string FlatProfile(const StageProfiler& stage) {
  callpath::CallingContextTree merged;
  for (const auto& [label, cct] : stage.LabeledCcts()) {
    merged.MergeFrom(*cct);
  }
  const std::string report = callpath::RenderGprofReport(merged, stage.deployment().paths(),
                                                         stage.deployment().functions());
  return report.substr(0, report.find("\nCall graph:"));
}

TEST(FlatProfileTest, RanksFunctionsByCpu) {
  Rig rig;
  std::string flat = FlatProfile(rig.callee);
  // svc has all of the callee's CPU: 100 in the %time column.
  EXPECT_NE(flat.find("  100  2.5e-06  2.5e-06  1  svc\n"), std::string::npos) << flat;
  // The flat profile merges contexts: only function totals remain.
  std::string caller_flat = FlatProfile(rig.caller);
  size_t main_pos = caller_flat.find("main");
  size_t foo_pos = caller_flat.find("foo");
  ASSERT_NE(main_pos, std::string::npos);
  ASSERT_NE(foo_pos, std::string::npos);
  EXPECT_LT(main_pos, foo_pos);  // main has all the CPU, listed first
}

TEST(StitcherDotTest, EmitsValidLookingGraphviz) {
  Rig rig;
  Stitcher stitcher(rig.dep);
  std::string dot = stitcher.RenderDot();
  EXPECT_NE(dot.find("digraph whodunit"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_0"), std::string::npos);
  EXPECT_NE(dot.find("\"caller:origin\""), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(dot.find("}\n"), std::string::npos);
}

}  // namespace
}  // namespace whodunit::profiler
