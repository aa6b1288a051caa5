// Ablation: the flow-summary cache (src/shm/section_cache.h).
//
// Three configurations of the same steady-state Apache queue workload:
//   interpreted     — warm translation cache, no summary cache
//   cache (arch)    — summaries replayed, no flow detector attached
//   cache+detector  — summaries replayed incl. dictionary effects
// plus a sweep of the variant ring against queue-depth churn: a
// section whose fingerprint pins a walking value (the queue depth)
// needs one variant per distinct depth, so hit rate degrades once the
// working set outgrows SectionCache::kMaxVariants.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "src/shm/flow_detector.h"
#include "src/shm/guest_code.h"
#include "src/shm/section_cache.h"
#include "src/vm/interpreter.h"

namespace {

using namespace whodunit;

constexpr uint64_t kLockId = 1;
constexpr uint64_t kQueueBase = 0x1000;

struct Fixture {
  vm::Program push = shm::ApQueuePush(kLockId);
  vm::Program pop = shm::ApQueuePop(kLockId);
  vm::Memory mem;
  vm::CpuState cpu;
  vm::Interpreter interp;

  Fixture() {
    cpu.regs[0] = kQueueBase;
    cpu.regs[5] = 0x2000;
    cpu.regs[6] = 0x2008;
  }
};

void BM_Interpreted(benchmark::State& state) {
  Fixture f;
  for (auto _ : state) {
    f.cpu.regs[1] = 42;
    f.cpu.regs[2] = 43;
    f.interp.Execute(f.push, 0, f.cpu, f.mem);
    f.interp.Execute(f.pop, 0, f.cpu, f.mem);
    benchmark::DoNotOptimize(f.cpu.regs[7]);
  }
}
BENCHMARK(BM_Interpreted);

void BM_CacheArchOnly(benchmark::State& state) {
  // Cache runs without a detector match no critical section, so they
  // would break the dump's section-cache law (docs/METRICS.md "Laws"):
  // count them in a private registry instead.
  obs::MetricsRegistry arch_only;
  obs::ScopedMetricsRegistry scope(arch_only);
  Fixture f;
  shm::SectionCache cache;
  for (auto _ : state) {
    f.cpu.regs[1] = 42;
    f.cpu.regs[2] = 43;
    cache.Run(f.interp, f.push, 0, f.cpu, f.mem, nullptr);
    cache.Run(f.interp, f.pop, 0, f.cpu, f.mem, nullptr);
    benchmark::DoNotOptimize(f.cpu.regs[7]);
  }
  state.counters["hit_rate"] =
      static_cast<double>(cache.hits()) / static_cast<double>(cache.hits() + cache.misses());
}
BENCHMARK(BM_CacheArchOnly);

void BM_CacheWithDetector(benchmark::State& state) {
  Fixture f;
  shm::FlowDetector detector([](vm::ThreadId t) { return shm::CtxtId{t + 1}; });
  shm::SectionCache cache;
  for (auto _ : state) {
    f.cpu.regs[1] = 42;
    f.cpu.regs[2] = 43;
    cache.Run(f.interp, f.push, 0, f.cpu, f.mem, &detector);
    cache.Run(f.interp, f.pop, 0, f.cpu, f.mem, &detector);
    benchmark::DoNotOptimize(f.cpu.regs[7]);
  }
  benchmark::DoNotOptimize(detector.flows_detected());
  state.counters["hit_rate"] =
      static_cast<double>(cache.hits()) / static_cast<double>(cache.hits() + cache.misses());
}
BENCHMARK(BM_CacheWithDetector);

// Variant-ring churn: the producer cycles the queue depth through
// `depth_range` values before the consumer drains it. Every depth is a
// distinct fingerprint for both sections, so hit rate collapses once a
// section's depth_range variants outgrow its kMaxVariants-slot
// (program, thread) ring; past the cliff the churn guard demotes the
// ring to plain emulation.
void BM_VariantChurn(benchmark::State& state) {
  const auto depth_range = static_cast<uint64_t>(state.range(0));
  obs::MetricsRegistry arch_only;  // detector-less, as in BM_CacheArchOnly
  obs::ScopedMetricsRegistry scope(arch_only);
  Fixture f;
  shm::SectionCache cache;
  for (auto _ : state) {
    for (uint64_t i = 0; i < depth_range; ++i) {
      f.cpu.regs[1] = 42;
      f.cpu.regs[2] = 43;
      cache.Run(f.interp, f.push, 0, f.cpu, f.mem, nullptr);
    }
    for (uint64_t i = 0; i < depth_range; ++i) {
      cache.Run(f.interp, f.pop, 0, f.cpu, f.mem, nullptr);
    }
    benchmark::DoNotOptimize(f.cpu.regs[7]);
  }
  state.counters["hit_rate"] =
      static_cast<double>(cache.hits()) / static_cast<double>(cache.hits() + cache.misses());
  state.counters["variants"] = static_cast<double>(cache.variants());
}
BENCHMARK(BM_VariantChurn)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

}  // namespace

int main(int argc, char** argv) {
  bench::Header(
      "Ablation: flow-summary cache\n"
      "interpreted vs arch-only replay vs replay+dictionary,\n"
      "then hit-rate vs queue-depth churn across the 64-variant ring");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  whodunit::bench::DumpMetrics("ablation_section_cache");
  return 0;
}
