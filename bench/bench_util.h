// Shared helpers for the experiment harnesses.
//
// Each bench binary regenerates one table or figure from the paper and
// prints the paper's number next to the measured one. Absolute values
// are calibrated (see workload/calibration.h); the claims under test
// are the SHAPES: who wins, by roughly what factor, where crossovers
// and saturation points fall.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <charconv>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/sim/parallel_runner.h"

namespace whodunit::bench {

inline void Header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

inline void Note(const char* text) { std::printf("%s\n", text); }

// ---- Parallel execution knobs (docs/PERFORMANCE.md) -------------------
//
// $BENCH_THREADS sets the PHYSICAL parallelism of a bench's job list
// (default 1 = today's serial behavior). The job list itself is fixed,
// results print in job order, and per-job metrics fold into the
// process registry in job order — so bench output and metrics dumps
// are byte-identical for any thread count.
//
// $BENCH_SHARDS sets the LOGICAL shard count passed to apps that
// support shard-parallel runs (default 1). Shard count is part of the
// workload definition: changing it changes the numbers (documented in
// docs/PERFORMANCE.md), which is why it is a separate knob.

// Knob values come from outside the program, so a malformed or
// out-of-range one stops the bench with exit 2 and a message naming
// the variable, instead of running at a default that the recorded
// bench JSON would misreport.
//
// Parses all of `text`, the value of $name, as an integer in [lo, hi].
inline long long ParseEnvInt(const char* name, std::string_view text,
                             long long lo, long long hi) {
  long long n = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, n);
  if (ec != std::errc() || end != last || n < lo || n > hi) {
    std::fprintf(stderr, "%s='%.*s': expected an integer in [%lld, %lld]\n",
                 name, static_cast<int>(text.size()), text.data(), lo, hi);
    std::exit(2);
  }
  return n;
}

inline int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') {
    return fallback;
  }
  return static_cast<int>(ParseEnvInt(name, v, 1, INT_MAX));
}

// Each knob is parsed once, so a bad value exits from the first
// reader only, even when jobs read it from several pool threads.
inline int BenchThreads() {
  static const int threads = EnvInt("BENCH_THREADS", 1);
  return threads;
}
inline int BenchShards() {
  static const int shards = EnvInt("BENCH_SHARDS", 1);
  return shards;
}

// $BENCH_SAMPLE_RATE sets the production sampling rate the app-level
// benches profile at (docs/PRODUCTION.md), in (0, 1]; run_benches.sh
// records it in the whodunit-bench-v1 JSON. Committed baselines use
// 1.0, which is byte-identical to the pre-sampling profiler.
inline double BenchSampleRate() {
  static const double rate = [] {
    const char* v = std::getenv("BENCH_SAMPLE_RATE");
    if (v == nullptr || v[0] == '\0') {
      return 1.0;
    }
    double r = 0;
    const char* last = v + std::strlen(v);
    const auto [end, ec] = std::from_chars(v, last, r);
    if (ec != std::errc() || end != last || !(r > 0.0 && r <= 1.0)) {
      std::fprintf(stderr, "BENCH_SAMPLE_RATE='%s': expected a number in (0, 1]\n", v);
      std::exit(2);
    }
    return r;
  }();
  return rate;
}

// Runs jobs 0..count-1 (each `fn(job)` returning a result) on
// BenchThreads() workers, each job in its own shard environment
// (sim::ShardEnv: private metrics registry, context tree, symbol
// table). Returns results in job order, after folding each job's
// metrics into the process registry in that same order.
template <typename Fn>
auto RunJobs(size_t count, Fn&& fn) {
  auto runs = sim::ParallelRunner::Run(
      count, static_cast<size_t>(BenchThreads()),
      [&fn](size_t job, sim::ShardEnv&) { return fn(job); });
  using R = std::decay_t<decltype(fn(size_t{0}))>;
  std::vector<R> out;
  out.reserve(runs.size());
  for (auto& run : runs) {
    run.env->FoldMetricsInto(obs::Registry());
    out.push_back(std::move(run.result));
  }
  return out;
}

// Directory metric dumps land in: $WHODUNIT_METRICS_DIR when set
// (scripts/run_benches.sh points it at the run's workdir), otherwise
// the current directory. Keeps by-hand bench runs from littering the
// source tree root with BENCH_*.metrics.json files.
inline std::string MetricsDir() {
  const char* dir = std::getenv("WHODUNIT_METRICS_DIR");
  if (dir != nullptr && dir[0] != '\0') {
    return dir;
  }
  return ".";
}

// Writes the profiler's internal counters (src/obs, docs/METRICS.md)
// to BENCH_<name>.metrics.json under MetricsDir(), so result
// trajectories carry the self-observability data next to the
// wall-clock numbers. Call once, at bench exit. Exits 1 if the dump
// cannot be written or breaks a counter law (obs::CheckLaws).
inline void DumpMetrics(const char* bench_name) {
  const std::string path =
      MetricsDir() + "/BENCH_" + bench_name + ".metrics.json";
  if (!obs::DumpGlobalMetrics(path)) {
    std::exit(1);
  }
  std::printf("\n[obs] internal metrics dumped to %s\n", path.c_str());
}

}  // namespace whodunit::bench

#endif  // BENCH_BENCH_UTIL_H_
