// Tests for call-path interning (the shadow stack's path tree) and
// disassembler coverage.
#include <gtest/gtest.h>

#include "src/callpath/shadow_stack.h"
#include "src/profiler/deployment.h"
#include "src/profiler/stage_profiler.h"
#include "src/vm/interpreter.h"
#include "src/vm/program_builder.h"

namespace whodunit {
namespace {

TEST(PathTreeTest, RecursionGivesDistinctPathsAndPopReturns) {
  callpath::PathTree paths;
  callpath::ShadowStack stack(paths);
  const callpath::FunctionId f = 3;
  const callpath::PathId root = stack.path_id();
  stack.Push(f);
  const callpath::PathId f1 = stack.path_id();
  stack.Push(f);
  const callpath::PathId f2 = stack.path_id();
  stack.Push(f);
  const callpath::PathId f3 = stack.path_id();
  EXPECT_NE(f1, f2);
  EXPECT_NE(f2, f3);
  EXPECT_NE(f1, f3);
  EXPECT_EQ(paths.PathTo(f3), (std::vector<callpath::FunctionId>{f, f, f}));
  stack.Pop();
  EXPECT_EQ(stack.path_id(), f2);
  stack.Pop();
  EXPECT_EQ(stack.path_id(), f1);
  stack.Pop();
  EXPECT_EQ(stack.path_id(), root);
  EXPECT_EQ(root, paths.root());
}

TEST(PathTreeTest, DetachedStackTracksPathAndAttachHoldsIt) {
  callpath::PathTree paths;
  callpath::ShadowStack stack(paths);
  stack.Push(1);
  stack.Push(2);
  stack.Push(3);
  EXPECT_EQ(stack.cct(), nullptr);
  EXPECT_EQ(paths.PathTo(stack.path_id()), (std::vector<callpath::FunctionId>{1, 2, 3}));

  callpath::CallingContextTree cct;
  stack.AttachCct(&cct);
  EXPECT_EQ(cct.size(), 4u);
  const callpath::PathId path_12 = paths.Child(paths.Child(paths.root(), 1), 2);
  EXPECT_TRUE(cct.holds(path_12));
  // Attaching holds paths without counting calls; later pushes count.
  EXPECT_EQ(cct.at(stack.path_id()).calls, 0u);
  stack.Push(4);
  EXPECT_EQ(cct.at(stack.path_id()).calls, 1u);
  EXPECT_EQ(cct.size(), 5u);
  stack.Pop();
  stack.Pop();
  EXPECT_EQ(stack.path_id(), path_12);
}

// The kCallPath element closing the context a synopsis part names.
context::Element SendPathElement(const profiler::Deployment& dep,
                                 const context::Synopsis& wire) {
  return dep.contexts().LastElement(dep.synopses().Lookup(wire.parts.back()));
}

TEST(PathTreeTest, StagesOfOneDeploymentShareCallPathElements) {
  profiler::Deployment dep;
  std::vector<context::Element> sent;
  for (const char* name : {"front", "back"}) {
    profiler::StageProfiler::Options options;
    options.name = name;
    auto& stage = dep.AddStage(std::make_unique<profiler::StageProfiler>(dep, options));
    profiler::ThreadProfile& tp = stage.CreateThread("worker");
    auto main_frame = stage.EnterFrame(tp, stage.RegisterFunction("main"));
    auto foo_frame = stage.EnterFrame(tp, stage.RegisterFunction("foo"));
    auto send_frame = stage.EnterFrame(tp, stage.RegisterFunction("send"));
    sent.push_back(SendPathElement(dep, stage.PrepareSend(tp)));
  }
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0].kind, context::ElementKind::kCallPath);
  EXPECT_EQ(sent[0], sent[1]);
  EXPECT_EQ(dep.DescribeElement(sent[0].kind, sent[0].id), "main>foo>send");
}

TEST(PathTreeTest, DescribeElementRendersPaths) {
  profiler::Deployment dep;
  const auto main_fn = dep.functions().Intern("main");
  const auto foo_fn = dep.functions().Intern("foo");
  const auto send_fn = dep.functions().Intern("send");
  callpath::PathTree& paths = dep.paths();
  const callpath::PathId path =
      paths.Child(paths.Child(paths.Child(paths.root(), main_fn), foo_fn), send_fn);
  EXPECT_EQ(dep.DescribeElement(context::ElementKind::kCallPath, path), "main>foo>send");
  EXPECT_EQ(dep.DescribeElement(context::ElementKind::kCallPath, dep.paths().root()), "");
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
