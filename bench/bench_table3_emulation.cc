// Table 3: execution cost of Apache's critical sections under direct
// execution, translation + emulation, and cached emulation.
//
// Two complementary measurements:
//   1. The guest-cycle model (deterministic): what the simulator
//      charges for each mode — calibrated to land in the paper's
//      regimes (~10^2 cycles direct, ~10^4-10^5 translate+emulate,
//      ~10^4 cached emulation).
//   2. Real host time via google-benchmark: a native C++ rendering of
//      ap_queue_push/pop vs the MiniVM interpreter cold and warm. The
//      ordering (direct << cached emulation << translate+emulate) is a
//      property of the design and must hold on real hardware too.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "src/shm/flow_detector.h"
#include "src/shm/guest_code.h"
#include "src/shm/section_cache.h"
#include "src/vm/interpreter.h"
#include "src/vm/program_builder.h"

namespace {

using namespace whodunit;

constexpr uint64_t kLockId = 1;
constexpr uint64_t kQueueBase = 0x1000;

// Native rendering of Figure 1's ap_queue_push/pop over the same
// sparse Memory, for an apples-to-apples "direct execution" number.
void NativePush(vm::Memory& mem, uint64_t sd, uint64_t p) {
  const uint64_t nelts = mem.Read(kQueueBase);
  const uint64_t elem = kQueueBase + shm::kApQueueDataOffset + nelts * shm::kApQueueElemSize;
  mem.Write(elem, sd);
  mem.Write(elem + 8, p);
  mem.Write(kQueueBase, nelts + 1);
}

std::pair<uint64_t, uint64_t> NativePop(vm::Memory& mem) {
  const uint64_t nelts = mem.Read(kQueueBase) - 1;
  mem.Write(kQueueBase, nelts);
  const uint64_t elem = kQueueBase + shm::kApQueueDataOffset + nelts * shm::kApQueueElemSize;
  return {mem.Read(elem), mem.Read(elem + 8)};
}

void BM_DirectExecution(benchmark::State& state) {
  vm::Memory mem;
  for (auto _ : state) {
    NativePush(mem, 42, 43);
    auto [sd, p] = NativePop(mem);
    benchmark::DoNotOptimize(sd);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_DirectExecution);

void BM_TranslationAndEmulation(benchmark::State& state) {
  vm::Program push = shm::ApQueuePush(kLockId);
  vm::Program pop = shm::ApQueuePop(kLockId);
  vm::Memory mem;
  vm::CpuState cpu;
  cpu.regs[0] = kQueueBase;
  cpu.regs[5] = 0x2000;
  cpu.regs[6] = 0x2008;
  vm::Interpreter interp;
  for (auto _ : state) {
    interp.FlushTranslationCache();  // every run pays translation
    cpu.regs[1] = 42;
    cpu.regs[2] = 43;
    interp.Execute(push, 0, cpu, mem);
    interp.Execute(pop, 0, cpu, mem);
    benchmark::DoNotOptimize(cpu.regs[7]);
  }
}
BENCHMARK(BM_TranslationAndEmulation);

// Warm translation cache, but still interpreting every instruction —
// the pre-section-cache fast path, kept as the ablation baseline.
void BM_EmulationInterpreted(benchmark::State& state) {
  vm::Program push = shm::ApQueuePush(kLockId);
  vm::Program pop = shm::ApQueuePop(kLockId);
  vm::Memory mem;
  vm::CpuState cpu;
  cpu.regs[0] = kQueueBase;
  cpu.regs[5] = 0x2000;
  cpu.regs[6] = 0x2008;
  vm::Interpreter interp;
  for (auto _ : state) {
    cpu.regs[1] = 42;
    cpu.regs[2] = 43;
    interp.Execute(push, 0, cpu, mem);
    interp.Execute(pop, 0, cpu, mem);
    benchmark::DoNotOptimize(cpu.regs[7]);
  }
}
BENCHMARK(BM_EmulationInterpreted);

// Warm runs through the flow-summary cache (src/shm/section_cache.h):
// the steady state replays recorded summaries instead of re-entering
// the MiniVM dispatch loop. This is the Table 3 "emulate cached"
// regime and the headline number for the cache.
void BM_EmulationFromCache(benchmark::State& state) {
  // Cache runs without a detector match no critical section, so they
  // would break the dump's section-cache law (docs/METRICS.md "Laws"):
  // count them in a private registry instead.
  obs::MetricsRegistry arch_only;
  obs::ScopedMetricsRegistry scope(arch_only);
  vm::Program push = shm::ApQueuePush(kLockId);
  vm::Program pop = shm::ApQueuePop(kLockId);
  vm::Memory mem;
  vm::CpuState cpu;
  cpu.regs[0] = kQueueBase;
  cpu.regs[5] = 0x2000;
  cpu.regs[6] = 0x2008;
  vm::Interpreter interp;
  shm::SectionCache cache;
  for (auto _ : state) {
    cpu.regs[1] = 42;
    cpu.regs[2] = 43;
    cache.Run(interp, push, 0, cpu, mem, nullptr);
    cache.Run(interp, pop, 0, cpu, mem, nullptr);
    benchmark::DoNotOptimize(cpu.regs[7]);
  }
  state.counters["hit_rate"] =
      static_cast<double>(cache.hits()) / static_cast<double>(cache.hits() + cache.misses());
}
BENCHMARK(BM_EmulationFromCache);

// Cached emulation with the flow detector attached — the full
// Whodunit observation cost, every hook delivered per instruction.
void BM_EmulationWithDetector(benchmark::State& state) {
  vm::Program push = shm::ApQueuePush(kLockId);
  vm::Program pop = shm::ApQueuePop(kLockId);
  vm::Memory mem;
  vm::CpuState cpu;
  cpu.regs[0] = kQueueBase;
  cpu.regs[5] = 0x2000;
  cpu.regs[6] = 0x2008;
  vm::Interpreter interp;
  shm::FlowDetector detector([](vm::ThreadId t) { return shm::CtxtId{t}; });
  for (auto _ : state) {
    cpu.regs[1] = 42;
    cpu.regs[2] = 43;
    interp.ExecuteWith(push, 0, cpu, mem, &detector);
    interp.ExecuteWith(pop, 0, cpu, mem, &detector);
    benchmark::DoNotOptimize(cpu.regs[7]);
  }
  benchmark::DoNotOptimize(detector.flows_detected());
}
BENCHMARK(BM_EmulationWithDetector);

// Full observation cost through the section cache: dictionary effects
// replay symbolically (contexts resolved against the live dictionary)
// instead of re-running the per-instruction flow hooks.
void BM_SectionCacheWithDetector(benchmark::State& state) {
  vm::Program push = shm::ApQueuePush(kLockId);
  vm::Program pop = shm::ApQueuePop(kLockId);
  vm::Memory mem;
  vm::CpuState cpu;
  cpu.regs[0] = kQueueBase;
  cpu.regs[5] = 0x2000;
  cpu.regs[6] = 0x2008;
  vm::Interpreter interp;
  shm::FlowDetector detector([](vm::ThreadId t) { return shm::CtxtId{t}; });
  shm::SectionCache cache;
  for (auto _ : state) {
    cpu.regs[1] = 42;
    cpu.regs[2] = 43;
    cache.Run(interp, push, 0, cpu, mem, &detector);
    cache.Run(interp, pop, 0, cpu, mem, &detector);
    benchmark::DoNotOptimize(cpu.regs[7]);
  }
  benchmark::DoNotOptimize(detector.flows_detected());
  state.counters["hit_rate"] =
      static_cast<double>(cache.hits()) / static_cast<double>(cache.hits() + cache.misses());
}
BENCHMARK(BM_SectionCacheWithDetector);

void PrintGuestCycleTable() {
  bench::Header(
      "Table 3: Apache critical-section cost in guest cycles (model)\n"
      "paper:  ap_queue_push  direct 131.64 | translate+emulate 62508 | cached 11606.8\n"
      "        ap_queue_pop   direct 109.72 | translate+emulate 40852 | cached 12118");

  vm::Interpreter interp;
  vm::Memory mem;
  const struct {
    const char* name;
    vm::Program program;
  } sections[] = {
      {"ap_queue_push", shm::ApQueuePush(kLockId)},
      {"ap_queue_pop", shm::ApQueuePop(kLockId)},
  };
  std::printf("%-15s | %10s | %20s | %15s\n", "critical sec.", "direct", "translate+emulate",
              "emulate cached");
  std::printf("----------------+------------+----------------------+----------------\n");
  for (const auto& section : sections) {
    vm::CpuState cpu;
    cpu.regs[0] = kQueueBase;
    cpu.regs[1] = 42;
    cpu.regs[2] = 43;
    cpu.regs[5] = 0x2000;
    cpu.regs[6] = 0x2008;
    vm::Memory fresh;
    // Prime the queue so pop has an element.
    vm::CpuState primer = cpu;
    vm::Interpreter direct_interp;
    direct_interp.Execute(shm::ApQueuePush(kLockId), 0, primer, fresh,
                          vm::Interpreter::Mode::kDirect);

    vm::Interpreter cold;
    vm::CpuState c1 = cpu;
    auto translated = cold.Execute(section.program, 0, c1, fresh);
    vm::CpuState c2 = cpu;
    auto cached = cold.Execute(section.program, 0, c2, fresh);
    vm::CpuState c3 = cpu;
    auto direct = cold.Execute(section.program, 0, c3, fresh, vm::Interpreter::Mode::kDirect);
    std::printf("%-15s | %10ld | %20ld | %15ld\n", section.name,
                static_cast<long>(direct.guest_cycles),
                static_cast<long>(translated.guest_cycles),
                static_cast<long>(cached.guest_cycles));
  }
  std::printf("\nReal host-time ordering follows below (google-benchmark):\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintGuestCycleTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  whodunit::bench::DumpMetrics("table3_emulation");
  return 0;
}
