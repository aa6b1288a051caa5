// Ablation: the post-critical-section consume window (MAX, §7.2).
//
// Whodunit keeps emulating for MAX instructions after a critical
// section exits, watching for the consumer's first use of the value.
// Too small a window misses consumption (no flow detected -> the
// worker's CPU is misattributed); a large window only costs emulation
// time. The paper uses MAX = 128. This bench sweeps the window against
// consumers that use the popped value after increasing amounts of
// unrelated work.
#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "src/shm/flow_detector.h"
#include "src/shm/guest_code.h"
#include "src/vm/program_builder.h"

int main() {
  using namespace whodunit;
  bench::Header("Ablation: post-critical-section consume window (MAX = 128 in the paper)");

  constexpr uint64_t kLock = 1;
  constexpr uint64_t kQueue = 0x1000;

  std::printf("%8s |", "window");
  const int gaps[] = {0, 4, 16, 64, 120, 200};
  for (int gap : gaps) {
    std::printf(" gap=%-4d", gap);
  }
  std::printf("   (gap = instructions between unlock and first use)\n");
  std::printf("---------+------------------------------------------------------\n");

  for (int window : {8, 32, 128, 512}) {
    std::printf("%8d |", window);
    for (int gap : gaps) {
      shm::FlowDetector::Config config;
      config.post_window = window;
      shm::FlowDetector detector(config, [](vm::ThreadId t) { return t * 100; });
      vm::Memory mem;
      vm::Interpreter interp;

      // Producer pushes.
      vm::CpuState prod;
      prod.regs[0] = kQueue;
      prod.regs[1] = 42;
      prod.regs[2] = 43;
      interp.ExecuteWith(shm::ApQueuePush(kLock), 1, prod, mem, &detector);

      // Consumer pops, does `gap` instructions of unrelated work, then
      // uses the value.
      vm::ProgramBuilder b("pop_then_use");
      b.Lock(kLock)
          .MovRM(3, 0, 0)
          .SubRI(3, 1)
          .MovMR(0, 0, 3)
          .MovRR(4, 3)
          .MulRI(4, shm::kApQueueElemSize)
          .AddRR(4, 0)
          .AddRI(4, shm::kApQueueDataOffset)
          .MovRM(1, 4, 0)
          .Unlock(kLock);
      for (int i = 0; i < gap; ++i) {
        b.Nop();
      }
      b.CmpRI(1, 0).Halt();
      vm::CpuState cons;
      cons.regs[0] = kQueue;
      interp.ExecuteWith(b.Build(), 2, cons, mem, &detector);

      std::printf(" %-8s", detector.flows_detected() > 0 ? "FLOW" : "miss");
    }
    std::printf("\n");
  }
  bench::Note(
      "\nMAX=128 catches consumers that use the value within a realistic\n"
      "procedure-return distance; a tiny window misses legitimate flows,\n"
      "a huge window only adds emulation cost after every critical section.");
  whodunit::bench::DumpMetrics("ablation_window");
  return 0;
}
