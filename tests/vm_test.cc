#include "src/vm/interpreter.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/vm/program_builder.h"

namespace whodunit::vm {
namespace {

TEST(ProgramBuilderTest, BuildsInstructions) {
  ProgramBuilder b("p");
  b.MovRI(1, 42).MovRR(2, 1).Halt();
  Program p = b.Build();
  EXPECT_EQ(p.code.size(), 3u);
  EXPECT_EQ(p.code[0].op, Opcode::kMovRI);
  EXPECT_EQ(p.code[0].imm, 42);
  EXPECT_NE(p.id, 0u);
}

TEST(ProgramBuilderTest, DistinctProgramsDistinctIds) {
  Program a = ProgramBuilder("a").Halt().Build();
  Program b = ProgramBuilder("b").Halt().Build();
  EXPECT_NE(a.id, b.id);
}

TEST(ProgramBuilderTest, ForwardAndBackwardLabels) {
  ProgramBuilder b("loop");
  // r1 = 0; do { r1 += 1 } while (r1 != 5)
  const int loop = b.DefineLabel();
  b.MovRI(1, 0).Bind(loop).AddRI(1, 1).CmpRI(1, 5).Jne(loop).Halt();
  Program p = b.Build();
  CpuState cpu;
  Memory mem;
  Interpreter interp;
  interp.Execute(p, 0, cpu, mem);
  EXPECT_EQ(cpu.regs[1], 5u);
}

TEST(InterpreterTest, MovSemantics) {
  ProgramBuilder b("movs");
  b.MovRI(0, 1000)        // r0 = base
      .MovRI(1, 7)
      .MovMR(0, 0, 1)     // [1000] = 7
      .MovRM(2, 0, 0)     // r2 = [1000]
      .MovMI(0, 8, 9)     // [1008] = 9
      .MovMM(0, 16, 0, 8) // [1016] = [1008]
      .Halt();
  CpuState cpu;
  Memory mem;
  Interpreter interp;
  interp.Execute(b.Build(), 0, cpu, mem);
  EXPECT_EQ(cpu.regs[2], 7u);
  EXPECT_EQ(mem.Read(1008), 9u);
  EXPECT_EQ(mem.Read(1016), 9u);
}

TEST(InterpreterTest, ArithmeticAndMemoryOps) {
  ProgramBuilder b("arith");
  b.MovRI(0, 1000)
      .MovRI(1, 10)
      .AddRI(1, 5)     // 15
      .SubRI(1, 3)     // 12
      .MulRI(1, 4)     // 48
      .MovRI(2, 2)
      .AddRR(1, 2)     // 50
      .MovMI(0, 0, 100)
      .IncM(0, 0)      // 101
      .IncM(0, 0)      // 102
      .DecM(0, 0)      // 101
      .AddMI(0, 0, 9)  // 110
      .Halt();
  CpuState cpu;
  Memory mem;
  Interpreter interp;
  interp.Execute(b.Build(), 0, cpu, mem);
  EXPECT_EQ(cpu.regs[1], 50u);
  EXPECT_EQ(mem.Read(1000), 110u);
}

TEST(InterpreterTest, ConditionalBranches) {
  // Compute max(r1, r2) into r3.
  ProgramBuilder b("max");
  const int r2_bigger = b.DefineLabel();
  const int done = b.DefineLabel();
  b.CmpRR(1, 2).Jl(r2_bigger).MovRR(3, 1).Jmp(done).Bind(r2_bigger).MovRR(3, 2).Bind(done).Halt();
  Program p = b.Build();
  Interpreter interp;
  Memory mem;
  {
    CpuState cpu;
    cpu.regs[1] = 10;
    cpu.regs[2] = 3;
    interp.Execute(p, 0, cpu, mem);
    EXPECT_EQ(cpu.regs[3], 10u);
  }
  {
    CpuState cpu;
    cpu.regs[1] = 2;
    cpu.regs[2] = 8;
    interp.Execute(p, 0, cpu, mem);
    EXPECT_EQ(cpu.regs[3], 8u);
  }
}

TEST(InterpreterTest, CmpMIAndJge) {
  ProgramBuilder b("cmpmi");
  const int ge = b.DefineLabel();
  b.MovRI(0, 500)
      .MovMI(0, 0, 7)
      .CmpMI(0, 0, 7)
      .Jge(ge)
      .MovRI(5, 111)  // skipped
      .Bind(ge)
      .MovRI(6, 222)
      .Halt();
  CpuState cpu;
  Memory mem;
  Interpreter interp;
  interp.Execute(b.Build(), 0, cpu, mem);
  EXPECT_EQ(cpu.regs[5], 0u);
  EXPECT_EQ(cpu.regs[6], 222u);
}

TEST(InterpreterTest, TranslationCachePaysOnce) {
  Program p = ProgramBuilder("t").MovRI(1, 1).Halt().Build();
  Interpreter interp;
  CpuState cpu;
  Memory mem;
  ExecResult first = interp.Execute(p, 0, cpu, mem, Interpreter::Mode::kEmulate);
  EXPECT_TRUE(first.translated);
  EXPECT_TRUE(interp.IsTranslated(p.id));
  ExecResult second = interp.Execute(p, 0, cpu, mem, Interpreter::Mode::kEmulate);
  EXPECT_FALSE(second.translated);
  EXPECT_LT(second.guest_cycles, first.guest_cycles);
  EXPECT_EQ(interp.translations_performed(), 1u);

  interp.FlushTranslationCache();
  ExecResult third = interp.Execute(p, 0, cpu, mem, Interpreter::Mode::kEmulate);
  EXPECT_TRUE(third.translated);
  EXPECT_EQ(third.guest_cycles, first.guest_cycles);
}

TEST(InterpreterTest, CostRegimesOrdered) {
  // Table 3's ordering: direct << cached emulation << translate+emulate.
  Program p = ProgramBuilder("costs").MovRI(0, 64).MovMI(0, 0, 1).IncM(0, 0).Halt().Build();
  Interpreter interp;
  Memory mem;
  CpuState cpu;
  ExecResult cold = interp.Execute(p, 0, cpu, mem, Interpreter::Mode::kEmulate);
  ExecResult warm = interp.Execute(p, 0, cpu, mem, Interpreter::Mode::kEmulate);
  ExecResult direct = interp.Execute(p, 0, cpu, mem, Interpreter::Mode::kDirect);
  EXPECT_LT(direct.guest_cycles, warm.guest_cycles);
  EXPECT_LT(warm.guest_cycles, cold.guest_cycles);
  EXPECT_EQ(direct.guest_cycles, direct.direct_cycles);
}

TEST(InterpreterTest, DirectModeDeliversNoHooks) {
  struct Counting : Interpreter::NoObserver {
    int64_t events = 0;
    void OnMov(ThreadId, const Loc&, const Loc&) { ++events; }
    void OnWriteValue(ThreadId, const Loc&) { ++events; }
    void OnRead(ThreadId, const Loc&) { ++events; }
    void OnRetireBatch(ThreadId, int64_t n) { events += n; }
  } obs;
  Program p = ProgramBuilder("d").MovRI(1, 5).MovRR(2, 1).Halt().Build();
  Interpreter interp;
  CpuState cpu;
  Memory mem;
  interp.ExecuteWith(p, 0, cpu, mem, &obs, Interpreter::Mode::kDirect);
  EXPECT_EQ(obs.events, 0);
  interp.ExecuteWith(p, 0, cpu, mem, &obs, Interpreter::Mode::kEmulate);
  EXPECT_GT(obs.events, 0);
}

TEST(InterpreterTest, ObserverSeesMovAndWriteEvents) {
  struct Recorder : Interpreter::NoObserver {
    std::vector<std::string> log;
    void OnMov(ThreadId, const Loc& dst, const Loc& src) {
      log.push_back("mov " + dst.ToString() + " <- " + src.ToString());
    }
    void OnWriteValue(ThreadId, const Loc& dst) { log.push_back("write " + dst.ToString()); }
    // An affine write (IncM) is a non-MOV write for this log.
    void OnAffineWrite(ThreadId t, const Loc& dst, const Loc&, uint64_t) {
      OnWriteValue(t, dst);
    }
    void OnLock(ThreadId, uint64_t id) { log.push_back("lock " + std::to_string(id)); }
    void OnUnlock(ThreadId, uint64_t id) { log.push_back("unlock " + std::to_string(id)); }
  } obs;
  ProgramBuilder b("events");
  b.Lock(9)
      .MovRI(0, 256)   // write r0
      .MovMR(0, 0, 1)  // mov [256] <- r1
      .IncM(0, 0)      // write [256]
      .Unlock(9)
      .Halt();
  Interpreter interp;
  CpuState cpu;
  Memory mem;
  interp.ExecuteWith(b.Build(), 3, cpu, mem, &obs);
  ASSERT_EQ(obs.log.size(), 5u);
  EXPECT_EQ(obs.log[0], "lock 9");
  EXPECT_EQ(obs.log[1], "write r0@t3");
  EXPECT_EQ(obs.log[2], "mov [256] <- r1@t3");
  EXPECT_EQ(obs.log[3], "write [256]");
  EXPECT_EQ(obs.log[4], "unlock 9");
}

TEST(InterpreterTest, InstructionCountsAndRetires) {
  struct Retires : Interpreter::NoObserver {
    int64_t retired = 0;
    void OnRetireBatch(ThreadId, int64_t n) { retired += n; }
  } obs;
  ProgramBuilder b("count");
  const int loop = b.DefineLabel();
  b.MovRI(1, 0).Bind(loop).AddRI(1, 1).CmpRI(1, 10).Jne(loop).Halt();
  CpuState cpu;
  Memory mem;
  Interpreter interp;
  ExecResult r = interp.ExecuteWith(b.Build(), 0, cpu, mem, &obs);
  EXPECT_EQ(r.instructions, obs.retired);
  EXPECT_EQ(r.instructions, 1 + 10 * 3 + 1);  // mov + 10*(add,cmp,jne) + halt
}

TEST(InterpreterTest, HaltStopsExecution) {
  Program p = ProgramBuilder("halt").MovRI(1, 1).Halt().MovRI(1, 99).Build();
  CpuState cpu;
  Memory mem;
  Interpreter interp;
  interp.Execute(p, 0, cpu, mem);
  EXPECT_EQ(cpu.regs[1], 1u);
}

TEST(DisassemblerTest, RendersReadableText) {
  ProgramBuilder b("demo");
  b.Lock(4).MovRM(3, 0, 8).IncM(0, 0).Unlock(4).Halt();
  std::string text = Disassemble(b.Build());
  EXPECT_NE(text.find("demo:"), std::string::npos);
  EXPECT_NE(text.find("lock #4"), std::string::npos);
  EXPECT_NE(text.find("mov_rm r3, [r0+8]"), std::string::npos);
  EXPECT_NE(text.find("inc_m [r0+0]"), std::string::npos);
}

TEST(LocTest, EqualityAndHashing) {
  EXPECT_EQ(Loc::Mem(8), Loc::Mem(8));
  EXPECT_NE(Loc::Mem(8), Loc::Mem(16));
  EXPECT_NE(Loc::Mem(8), Loc::Reg(0, 8));
  EXPECT_EQ(Loc::Reg(1, 3), Loc::Reg(1, 3));
  EXPECT_NE(Loc::Reg(1, 3), Loc::Reg(2, 3));
  LocHash h;
  EXPECT_EQ(h(Loc::Mem(8)), h(Loc::Mem(8)));
  EXPECT_NE(h(Loc::Mem(8)), h(Loc::Reg(0, 8)));
}

}  // namespace
}  // namespace whodunit::vm
