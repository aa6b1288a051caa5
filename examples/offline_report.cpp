// Post-mortem reporting from serialized profiles (paper §7.1).
//
// Whodunit's run-time writes one profile file per stage plus a context
// dictionary when the profiled programs exit; a separate presentation
// step stitches them. This example does the full round trip through
// real files:
//
//   offline_report [output_dir]     (default: ./whodunit_profiles)
//
// Step 1 profiles a three-stage deployment, renders its live stitched
// report, and writes
//   <dir>/metrics.json, <dir>/caller.profile, <dir>/middle.profile,
//   <dir>/leaf.profile, <dir>/contexts.dict
// Step 2 reads the profiles back — using nothing else — and prints the
// stitched end-to-end transactional profile. It must equal the live
// report byte for byte; the example exits 1 if it does not.
// Step 3 re-reads and prints the profiler's own metrics.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "src/obs/export.h"
#include "src/profiler/deployment.h"
#include "src/profiler/profile_io.h"
#include "src/profiler/stage_profiler.h"
#include "src/profiler/stitcher.h"

namespace {

using namespace whodunit;
using profiler::StageProfiler;

void WriteFile(const std::filesystem::path& path, const std::string& contents) {
  std::ofstream out(path);
  out << contents;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

StageProfiler::Options Opts(std::string name) {
  StageProfiler::Options o;
  o.name = std::move(name);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path dir = argc > 1 ? argv[1] : "whodunit_profiles";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create output directory %s\n", dir.c_str());
    return 1;
  }

  // ---- Step 1: a profiled run (three stages, two request types) ----
  profiler::Deployment dep;
  auto& caller = dep.AddStage(std::make_unique<StageProfiler>(dep, Opts("caller")));
  auto& middle = dep.AddStage(std::make_unique<StageProfiler>(dep, Opts("middle")));
  auto& leaf = dep.AddStage(std::make_unique<StageProfiler>(dep, Opts("leaf")));
  auto& ct = caller.CreateThread("main");
  auto& mt = middle.CreateThread("svc");
  auto& lt = leaf.CreateThread("db");
  auto search_fn = caller.RegisterFunction("search");
  auto browse_fn = caller.RegisterFunction("browse");
  auto logic_fn = middle.RegisterFunction("business_logic");
  auto query_fn = leaf.RegisterFunction("run_query");

  for (int i = 0; i < 10; ++i) {
    auto via = i % 3 == 0 ? search_fn : browse_fn;
    auto f0 = caller.EnterFrame(ct, via);
    caller.ChargeCpu(ct, sim::Millis(2));
    context::Synopsis s1 = caller.PrepareSend(ct);
    middle.OnReceive(mt, s1);
    context::Synopsis s2;
    {
      auto f1 = middle.EnterFrame(mt, logic_fn);
      middle.ChargeCpu(mt, sim::Millis(5));
      s2 = middle.PrepareSend(mt);
    }
    leaf.OnReceive(lt, s2);
    {
      auto f2 = leaf.EnterFrame(lt, query_fn);
      leaf.ChargeCpu(lt, via == search_fn ? sim::Millis(40) : sim::Millis(4));
      context::Synopsis resp = leaf.PrepareSend(lt, false);
      middle.OnReceive(mt, resp);
    }
    context::Synopsis resp2 = middle.PrepareSend(mt, false);
    caller.OnReceive(ct, resp2);
  }

  // "When the program exits, Whodunit ... writes the profile data to
  // disk." The profiler's own telemetry goes first, so it covers the
  // run and not the reports below.
  const std::filesystem::path metrics_path = dir / "metrics.json";
  if (!obs::DumpGlobalMetrics(metrics_path.string())) {
    return 1;
  }
  const std::string live_report = profiler::Stitcher(dep).Render();
  WriteFile(dir / "caller.profile", profiler::SerializeProfile(caller));
  WriteFile(dir / "middle.profile", profiler::SerializeProfile(middle));
  WriteFile(dir / "leaf.profile", profiler::SerializeProfile(leaf));
  WriteFile(dir / "contexts.dict", profiler::SerializeDictionary(dep));
  std::printf("wrote 3 stage profiles + dictionary to %s/\n\n", dir.c_str());

  // ---- Step 2: the presentation phase, from files alone ----
  profiler::Profile profile;
  const bool ok = profiler::ParseProfile(ReadFile(dir / "caller.profile"), &profile) &&
                  profiler::ParseProfile(ReadFile(dir / "middle.profile"), &profile) &&
                  profiler::ParseProfile(ReadFile(dir / "leaf.profile"), &profile) &&
                  profiler::ParseDictionary(ReadFile(dir / "contexts.dict"), &profile);
  if (!ok) {
    std::fprintf(stderr, "failed to re-read the profile files\n");
    return 1;
  }
  const std::string report = profiler::Stitcher(profile).Render();
  std::printf("%s", report.c_str());
  if (report != live_report) {
    std::fprintf(stderr, "the report rebuilt from %s differs from the live report\n",
                 dir.c_str());
    return 1;
  }
  std::printf("\nNote how the leaf's run_query cost is split by which caller path\n"
              "(search vs browse) reached it, two stages upstream.\n");

  // ---- Step 3: the profiler's own telemetry, same round trip ----
  // The obs layer (docs/METRICS.md) watched the run from the inside:
  // re-read its JSON export and render it from the file alone — the
  // path every bench's BENCH_*.metrics.json dump takes.
  obs::MetricsSnapshot snapshot;
  if (!obs::ParseJson(ReadFile(metrics_path), &snapshot)) {
    std::fprintf(stderr, "failed to re-read %s\n", metrics_path.c_str());
    return 1;
  }
  std::printf("\n===== profiler self-observability (re-read from %s) =====\n",
              metrics_path.c_str());
  std::printf("%s", obs::RenderText(snapshot).c_str());
  return 0;
}
