// Tests for profile serialization and the post-mortem presentation
// phase (paper §7.1: profiles written at exit, stitched offline).
#include "src/profiler/profile_io.h"

#include <gtest/gtest.h>

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

TEST(ProfileIoTest, SerializeParseRoundTrip) {
  Rig rig;
  std::string text = SerializeProfile(rig.callee);
  EXPECT_NE(text.find("whodunit-profile 1"), std::string::npos);
  EXPECT_NE(text.find("stage callee"), std::string::npos);

  LoadedProfile loaded;
  ASSERT_TRUE(ParseProfile(text, &loaded));
  EXPECT_EQ(loaded.stage_name, "callee");
  ASSERT_EQ(loaded.ccts.size(), 1u);
  EXPECT_EQ(loaded.ccts[0].first, rig.request);
  EXPECT_EQ(loaded.ccts[0].second.TotalCpuTime(), 2500);
  EXPECT_EQ(loaded.ccts[0].second.TotalSamples(), 25u);
  // The function name survived.
  bool found = false;
  for (uint32_t i = 0; i < loaded.functions.size(); ++i) {
    if (loaded.functions.NameOf(i) == "svc") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ProfileIoTest, ByteCountersRoundTrip) {
  Rig rig;
  LoadedProfile loaded;
  ASSERT_TRUE(ParseProfile(SerializeProfile(rig.caller), &loaded));
  EXPECT_EQ(loaded.payload_bytes, 500u);
  EXPECT_EQ(loaded.context_bytes, rig.request.WireBytes());
}

TEST(ProfileIoTest, DictionaryRoundTrip) {
  Rig rig;
  std::string text = SerializeDictionary(rig.dep);
  std::map<uint32_t, std::string> dict;
  ASSERT_TRUE(ParseDictionary(text, &dict));
  ASSERT_FALSE(dict.empty());
  // The send point's call path is described.
  bool mentions_foo = false;
  for (const auto& [id, desc] : dict) {
    if (desc.find("foo") != std::string::npos) {
      mentions_foo = true;
    }
  }
  EXPECT_TRUE(mentions_foo);
}

TEST(ProfileIoTest, MalformedInputsRejected) {
  LoadedProfile loaded;
  EXPECT_FALSE(ParseProfile("", &loaded));
  EXPECT_FALSE(ParseProfile("not-a-profile\n", &loaded));
  EXPECT_FALSE(ParseProfile("whodunit-profile 1\nstage x\n", &loaded));  // no end
  EXPECT_FALSE(ParseProfile("whodunit-profile 1\nnode 0 0 f 1 1 1\nend\n",
                            &loaded));  // node before cct
  std::map<uint32_t, std::string> dict;
  EXPECT_FALSE(ParseDictionary("garbage", &dict));
}

// Re-emits a loaded profile in the serialized line format (children in
// map order, which matches the writer's for single-child chains).
void RenderSubtree(const LoadedProfile& p, const callpath::CallingContextTree& cct,
                   callpath::NodeIndex node, callpath::NodeIndex parent_out,
                   callpath::NodeIndex& next_out, std::string& out) {
  const auto& n = cct.node(node);
  const callpath::NodeIndex my_out = next_out++;
  if (node != cct.root()) {
    out += "node " + std::to_string(my_out) + " " + std::to_string(parent_out) + " " +
           p.functions.NameOf(n.function) + " " + std::to_string(n.samples) + " " +
           std::to_string(n.cpu_time) + " " + std::to_string(n.calls) + "\n";
  }
  for (const auto& [f, child] : n.children) {
    RenderSubtree(p, cct, child, my_out, next_out, out);
  }
}

std::string Render(const LoadedProfile& p) {
  std::string out = "whodunit-profile 1\nstage " + p.stage_name + "\nbytes " +
                    std::to_string(p.payload_bytes) + " " + std::to_string(p.context_bytes) +
                    "\n";
  for (const auto& [label, cct] : p.ccts) {
    out += "cct " + (label.parts.empty() ? std::string("-") : label.ToString()) + "\n";
    callpath::NodeIndex next_out = 0;
    RenderSubtree(p, cct, cct.root(), 0, next_out, out);
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
    "whodunit-profile 1\n"
    "stage s\n"
    "bytes 10 20\n"
    "cct 1#2\n"
    "node 1 0 main 3 40 5\n"
    "node 2 1 foo 1 10 1\n"
    "cct -\n"
    "node 1 0 idle 0 7 0\n"
    "end\n";

constexpr const char* kDictionary =
    "whodunit-dictionary 1\n"
    "part 0 listener\n"
    "part 1 worker/handle\n"
    "part 4294967295\n"
    "end\n";

// kProfile with its line `line` (0-based) replaced by `with`.
std::string ProfileWith(int line, const std::string& with) {
  std::string text = kProfile;
  size_t begin = 0;
  for (int i = 0; i < line; ++i) {
    begin = text.find('\n', begin) + 1;
  }
  return text.replace(begin, text.find('\n', begin) - begin, with);
}

TEST(ProfileIoTest, ParsersAcceptValidAndRejectMalformedInput) {
  // Valid inputs round-trip: the writer's output and the fixtures.
  Rig rig;
  for (const StageProfiler* stage : {&rig.caller, &rig.callee}) {
    const std::string text = SerializeProfile(*stage);
    LoadedProfile loaded;
    ASSERT_TRUE(ParseProfile(text, &loaded)) << text;
    EXPECT_EQ(Render(loaded), text);
  }
  LoadedProfile fixture;
  ASSERT_TRUE(ParseProfile(kProfile, &fixture));
  EXPECT_EQ(Render(fixture), kProfile);
  for (const std::string& text : {SerializeDictionary(rig.dep), std::string(kDictionary)}) {
    std::map<uint32_t, std::string> dict;
    ASSERT_TRUE(ParseDictionary(text, &dict)) << text;
    EXPECT_EQ(Render(dict), text);
  }

  // A count at the top of its range is valid and added in one step.
  LoadedProfile big;
  ASSERT_TRUE(ParseProfile(ProfileWith(4, "node 1 0 main 3 40 18446744073709551615"), &big));
  EXPECT_EQ(big.ccts[0].second.node(1).calls, UINT64_MAX);

  const struct {
    const char* what;
    std::string text;
  } bad_profiles[] = {
      {"calls -1", ProfileWith(4, "node 1 0 main 3 40 -1")},
      {"calls past uint64", ProfileWith(4, "node 1 0 main 3 40 18446744073709551616")},
      {"calls not a number", ProfileWith(4, "node 1 0 main 3 40 many")},
      {"calls with trailing text", ProfileWith(4, "node 1 0 main 3 40 5x")},
      {"samples -1", ProfileWith(4, "node 1 0 main -1 40 5")},
      {"cpu past int64", ProfileWith(4, "node 1 0 main 3 9223372036854775808 5")},
      {"node index past uint32", ProfileWith(4, "node 4294967296 0 main 3 40 5")},
      {"node field missing", ProfileWith(4, "node 1 0 main 3 40")},
      {"node field extra", ProfileWith(4, "node 1 0 main 3 40 5 6")},
      {"unknown parent", ProfileWith(5, "node 2 9 foo 1 10 1")},
      {"reused node index", ProfileWith(5, "node 1 1 foo 1 10 1")},
      {"same path twice", ProfileWith(5, "node 2 0 main 1 10 1")},
      {"node before cct", ProfileWith(3, "node 9 0 x 1 1 1")},
      {"label part past uint32", ProfileWith(3, "cct 4294967296")},
      {"label part not a number", ProfileWith(3, "cct 1#x")},
      {"label empty part", ProfileWith(3, "cct 1##2")},
      {"label trailing #", ProfileWith(3, "cct 1#")},
      {"label missing", ProfileWith(3, "cct")},
      {"stage name missing", ProfileWith(1, "stage")},
      {"stage name split", ProfileWith(1, "stage a b")},
      {"bytes not a number", ProfileWith(2, "bytes ten 20")},
      {"bytes negative", ProfileWith(2, "bytes 10 -20")},
      {"bytes field missing", ProfileWith(2, "bytes 10")},
      {"unknown line", ProfileWith(2, "weight 3")},
      {"wrong header", ProfileWith(0, "whodunit-profile 2")},
      {"end with trailing field", ProfileWith(8, "end now")},
  };
  for (const auto& c : bad_profiles) {
    LoadedProfile loaded;
    EXPECT_FALSE(ParseProfile(c.text, &loaded)) << c.what;
  }
  const std::string profile = kProfile;
  for (size_t n = 0; n < profile.size(); ++n) {
    LoadedProfile loaded;
    EXPECT_FALSE(ParseProfile(profile.substr(0, n), &loaded)) << "truncated to " << n;
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
    std::map<uint32_t, std::string> dict;
    EXPECT_FALSE(ParseDictionary(text, &dict)) << text;
  }
  const std::string dictionary = kDictionary;
  for (size_t n = 0; n < dictionary.size(); ++n) {
    std::map<uint32_t, std::string> dict;
    EXPECT_FALSE(ParseDictionary(dictionary.substr(0, n), &dict)) << "truncated to " << n;
  }
}

TEST(ProfileIoTest, OfflineStitchReconstructsEdges) {
  Rig rig;
  std::vector<LoadedProfile> profiles(2);
  ASSERT_TRUE(ParseProfile(SerializeProfile(rig.caller), &profiles[0]));
  ASSERT_TRUE(ParseProfile(SerializeProfile(rig.callee), &profiles[1]));
  std::map<uint32_t, std::string> dict;
  ASSERT_TRUE(ParseDictionary(SerializeDictionary(rig.dep), &dict));

  std::string report = OfflineStitch(profiles, dict);
  EXPECT_NE(report.find("stage 'caller'"), std::string::npos);
  EXPECT_NE(report.find("stage 'callee'"), std::string::npos);
  EXPECT_NE(report.find("svc"), std::string::npos);
  // The request edge caller -> callee was recovered offline.
  EXPECT_NE(report.find("caller (origin) --["), std::string::npos);
  EXPECT_NE(report.find("--> callee"), std::string::npos);
}

TEST(FlatProfileTest, RanksFunctionsByCpu) {
  Rig rig;
  std::string flat = rig.callee.RenderFlatProfile();
  EXPECT_NE(flat.find("svc"), std::string::npos);
  EXPECT_NE(flat.find("100%"), std::string::npos);
  // The flat profile merges contexts: only function totals remain.
  std::string caller_flat = rig.caller.RenderFlatProfile();
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
