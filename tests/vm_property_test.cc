// Property-based tests for MiniVM.
//
// The load-bearing invariant: EMULATION IS TRANSPARENT. Running any
// program under kEmulate (hooks, translation, cycle model) must leave
// exactly the same architectural state — registers, flags, memory — as
// running it under kDirect. Whodunit relies on this: it freely switches
// critical sections between emulated and native execution (§7.2), so a
// semantic difference would corrupt the application being profiled.
#include <gtest/gtest.h>

#include "src/shm/flow_detector.h"
#include "src/util/rng.h"
#include "src/vm/interpreter.h"
#include "src/vm/program_builder.h"

namespace whodunit::vm {
namespace {

// Generates a random straight-line-with-forward-branches program that
// always terminates: jumps only target labels bound later.
Program RandomProgram(util::Rng& rng, int length, uint64_t lock_id) {
  ProgramBuilder b("fuzz");
  b.Lock(lock_id);
  // A register holding a valid base address so memory operands stay in
  // a small arena.
  b.MovRI(0, 0x1000);
  std::vector<int> pending_labels;
  for (int i = 0; i < length; ++i) {
    // Bind a previously created forward label with probability ~1/2.
    if (!pending_labels.empty() && rng.NextBernoulli(0.5)) {
      b.Bind(pending_labels.back());
      pending_labels.pop_back();
    }
    const auto r1 = static_cast<uint8_t>(1 + rng.NextBelow(7));
    const auto r2 = static_cast<uint8_t>(1 + rng.NextBelow(7));
    const auto disp = static_cast<int64_t>(rng.NextBelow(16) * 8);
    const auto imm = static_cast<int64_t>(rng.NextBelow(1000));
    switch (rng.NextBelow(14)) {
      case 0: b.MovRR(r1, r2); break;
      case 1: b.MovRI(r1, imm); break;
      case 2: b.MovRM(r1, 0, disp); break;
      case 3: b.MovMR(0, disp, r1); break;
      case 4: b.MovMI(0, disp, imm); break;
      case 5: b.MovMM(0, disp, 0, static_cast<int64_t>(rng.NextBelow(16) * 8)); break;
      case 6: b.AddRR(r1, r2); break;
      case 7: b.AddRI(r1, imm); break;
      case 8: b.SubRI(r1, imm); break;
      case 9: b.MulRI(r1, 1 + static_cast<int64_t>(rng.NextBelow(4))); break;
      case 10: b.IncM(0, disp); break;
      case 11: b.CmpRI(r1, imm); break;
      case 12: b.CmpRR(r1, r2); break;
      case 13: {
        // Forward conditional branch to a label bound later.
        const int label = b.DefineLabel();
        pending_labels.push_back(label);
        switch (rng.NextBelow(4)) {
          case 0: b.Je(label); break;
          case 1: b.Jne(label); break;
          case 2: b.Jl(label); break;
          default: b.Jge(label); break;
        }
        break;
      }
    }
  }
  b.Unlock(lock_id);
  // Post-critical-section tail so the consume window sees activity.
  b.CmpRI(1, 0);
  for (int unbound = static_cast<int>(pending_labels.size()); unbound-- > 0;) {
    b.Bind(pending_labels[static_cast<size_t>(unbound)]);
  }
  b.Halt();
  return b.Build();
}

class VmFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VmFuzzTest, EmulationIsArchitecturallyTransparent) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    Program p = RandomProgram(rng, 40, /*lock_id=*/9);

    CpuState direct_cpu, emu_cpu;
    for (int r = 1; r < kNumRegs; ++r) {
      direct_cpu.regs[static_cast<size_t>(r)] = emu_cpu.regs[static_cast<size_t>(r)] =
          rng.NextU64() % 1000;
    }
    Memory direct_mem, emu_mem;
    for (int w = 0; w < 16; ++w) {
      const uint64_t v = rng.NextU64() % 500;
      direct_mem.Write(0x1000 + static_cast<Addr>(w) * 8, v);
      emu_mem.Write(0x1000 + static_cast<Addr>(w) * 8, v);
    }

    Interpreter di, ei;
    shm::FlowDetector detector([](ThreadId) { return 7u; });
    ExecResult dr = di.Execute(p, 0, direct_cpu, direct_mem, Interpreter::Mode::kDirect);
    ExecResult er = ei.ExecuteWith(p, 0, emu_cpu, emu_mem, &detector,
                                   Interpreter::Mode::kEmulate);

    ASSERT_EQ(dr.instructions, er.instructions) << "trial " << trial;
    EXPECT_EQ(direct_cpu.regs, emu_cpu.regs) << "trial " << trial;
    EXPECT_EQ(direct_cpu.cmp, emu_cpu.cmp) << "trial " << trial;
    EXPECT_EQ(direct_mem.Snapshot(), emu_mem.Snapshot()) << "trial " << trial;
    // Cost regimes hold for arbitrary programs too.
    EXPECT_EQ(dr.guest_cycles, dr.direct_cycles);
    EXPECT_GT(er.guest_cycles, dr.guest_cycles);
  }
}

TEST_P(VmFuzzTest, ReexecutionIsDeterministic) {
  util::Rng rng(GetParam() ^ 0xD5);
  Program p = RandomProgram(rng, 30, 9);
  CpuState a, b;
  Memory ma, mb;
  Interpreter ia, ib;
  ExecResult ra = ia.Execute(p, 0, a, ma);
  ExecResult rb = ib.Execute(p, 0, b, mb);
  EXPECT_EQ(ra.instructions, rb.instructions);
  EXPECT_EQ(ra.guest_cycles, rb.guest_cycles);
  EXPECT_EQ(a.regs, b.regs);
  EXPECT_EQ(ma.Snapshot(), mb.Snapshot());
}

TEST_P(VmFuzzTest, FlowDetectorNeverCrashesOnRandomPrograms) {
  // The detector must tolerate arbitrary instruction streams (it sees
  // whatever the application's critical sections contain).
  util::Rng rng(GetParam() ^ 0xF10);
  shm::FlowDetector detector([](ThreadId t) { return t; });
  Interpreter interp;
  Memory mem;
  for (int trial = 0; trial < 10; ++trial) {
    Program p = RandomProgram(rng, 60, 1 + trial % 3);
    CpuState cpu;
    cpu.regs[0] = 0x1000;
    interp.ExecuteWith(p, static_cast<ThreadId>(trial % 4), cpu, mem, &detector);
  }
  // Sanity: the dictionary stays bounded by the touched locations.
  EXPECT_LT(detector.dictionary_size(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace whodunit::vm
