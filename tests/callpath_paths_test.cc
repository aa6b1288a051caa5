// Tests for call-path interning and disassembler coverage.
#include <gtest/gtest.h>

#include "src/callpath/path_table.h"
#include "src/vm/interpreter.h"
#include "src/vm/program_builder.h"

namespace whodunit {
namespace {

TEST(PathTableTest, InternsAndRendersPaths) {
  callpath::FunctionRegistry reg;
  callpath::CallPathTable paths;
  auto main_fn = reg.Register("main");
  auto foo_fn = reg.Register("foo");
  auto send_fn = reg.Register("send");

  callpath::PathId p1 = paths.Intern({main_fn, foo_fn, send_fn});
  callpath::PathId p2 = paths.Intern({main_fn, foo_fn, send_fn});
  callpath::PathId p3 = paths.Intern({main_fn, send_fn});
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, p3);
  EXPECT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths.PathOf(p1), (std::vector<callpath::FunctionId>{main_fn, foo_fn, send_fn}));
  EXPECT_EQ(paths.Render(p1, reg), "main>foo>send");
  EXPECT_EQ(paths.Render(p3, reg), "main>send");
}

TEST(PathTableTest, EmptyPathIsValid) {
  callpath::FunctionRegistry reg;
  callpath::CallPathTable paths;
  callpath::PathId p = paths.Intern({});
  EXPECT_EQ(paths.Render(p, reg), "");
  EXPECT_EQ(paths.Intern({}), p);
}

TEST(PathTableTest, PrefixPathsAreDistinct) {
  callpath::FunctionRegistry reg;
  callpath::CallPathTable paths;
  auto a = reg.Register("a");
  auto b = reg.Register("b");
  EXPECT_NE(paths.Intern({a}), paths.Intern({a, b}));
  EXPECT_NE(paths.Intern({a, b}), paths.Intern({b, a}));
}

TEST(DisassemblerTest, CoversEveryOpcode) {
  using namespace vm;
  ProgramBuilder b("all_ops");
  const int label = b.DefineLabel();
  b.MovRR(1, 2)
      .MovRI(1, 5)
      .MovRM(1, 0, 8)
      .MovMR(0, 8, 1)
      .MovMI(0, 8, 7)
      .MovMM(0, 8, 0, 16)
      .AddRR(1, 2)
      .AddRI(1, 3)
      .SubRI(1, 1)
      .MulRI(1, 2)
      .IncM(0, 0)
      .DecM(0, 0)
      .AddMI(0, 0, 4)
      .CmpRI(1, 0)
      .CmpRR(1, 2)
      .CmpMI(0, 0, 9)
      .Je(label)
      .Jne(label)
      .Jl(label)
      .Jge(label)
      .Jmp(label)
      .Lock(3)
      .Unlock(3)
      .Nop()
      .Bind(label)
      .Halt();
  const std::string text = Disassemble(b.Build());
  for (const char* op :
       {"mov_rr", "mov_ri", "mov_rm", "mov_mr", "mov_mi", "mov_mm", "add_rr", "add_ri",
        "sub_ri", "mul_ri", "inc_m", "dec_m", "add_mi", "cmp_ri", "cmp_rr", "cmp_mi", "je",
        "jne", "jl", "jge", "jmp", "lock", "unlock", "nop", "halt"}) {
    EXPECT_NE(text.find(op), std::string::npos) << op;
  }
}

TEST(InterpreterGuardTest, RunawayLoopTerminatesAtMaxSteps) {
  using namespace vm;
  ProgramBuilder b("forever");
  const int loop = b.DefineLabel();
  b.Bind(loop).Nop().Jmp(loop);
  Interpreter interp;
  CpuState cpu;
  Memory mem;
  ExecResult r = interp.Execute(b.Build(), 0, cpu, mem, Interpreter::Mode::kDirect,
                                /*max_steps=*/1000);
  EXPECT_EQ(r.instructions, 1000);
}

}  // namespace
}  // namespace whodunit
