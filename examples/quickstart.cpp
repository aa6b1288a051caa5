// Quickstart: profile a two-stage RPC application with Whodunit.
//
// This is the Figure 6/7 scenario from the paper: a caller with two
// transaction paths (through `foo` and through `bar`) into one RPC
// service. A conventional profiler reports ONE number for the callee's
// service routine; Whodunit keeps a separate calling-context tree per
// transaction context, so the cost splits by which caller path caused
// it — and the post-mortem stitcher connects the per-stage profiles
// into one end-to-end transactional profile.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "src/callpath/gprof_report.h"
#include "src/profiler/deployment.h"
#include "src/profiler/stage_profiler.h"
#include "src/profiler/stitcher.h"

int main() {
  using namespace whodunit;
  using profiler::StageProfiler;

  // One Deployment = one profiled multi-tier application.
  profiler::Deployment deployment;
  StageProfiler::Options caller_opts;
  caller_opts.name = "caller";
  StageProfiler::Options callee_opts;
  callee_opts.name = "callee";
  auto& caller = deployment.AddStage(
      std::make_unique<StageProfiler>(deployment, caller_opts));
  auto& callee = deployment.AddStage(
      std::make_unique<StageProfiler>(deployment, callee_opts));

  // Each simulated thread of control gets a ThreadProfile.
  profiler::ThreadProfile& ct = caller.CreateThread("main_caller");
  profiler::ThreadProfile& st = callee.CreateThread("svc_run");

  // Declare the procedure structure with RAII frames.
  auto main_fn = caller.RegisterFunction("main_caller");
  auto foo_fn = caller.RegisterFunction("foo");
  auto bar_fn = caller.RegisterFunction("bar");
  auto rpc_fn = caller.RegisterFunction("rpc_call");
  auto svc_fn = callee.RegisterFunction("callee_rpc_svc");
  auto sort_fn = callee.RegisterFunction("db_sort");

  // Two RPCs through different caller paths. The callee's work is
  // charged to a CCT labeled by the caller's transaction context.
  auto do_rpc = [&](callpath::FunctionId via, sim::SimTime callee_work) {
    auto f0 = caller.EnterFrame(ct, main_fn);
    auto f1 = caller.EnterFrame(ct, via);
    auto f2 = caller.EnterFrame(ct, rpc_fn);

    // send: compute the synopsis and piggy-back it on the message.
    context::Synopsis request = caller.PrepareSend(ct);

    // ---- network ----> at the callee:
    callee.OnReceive(st, request);  // adopts the caller's context
    context::Synopsis response;
    {
      auto g0 = callee.EnterFrame(st, svc_fn);
      auto g1 = callee.EnterFrame(st, sort_fn);
      callee.ChargeCpu(st, callee_work);  // samples land per-context
      response = callee.PrepareSend(st, /*expect_response=*/false);
    }

    // <---- network ---- back at the caller: the response's synopsis
    // extends the one we sent, so it is recognized and our context is
    // restored.
    caller.OnReceive(ct, response);
    caller.ChargeCpu(ct, sim::Millis(1));
  };

  do_rpc(foo_fn, sim::Millis(30));  // foo's transactions sort a lot
  do_rpc(bar_fn, sim::Millis(5));   // bar's barely at all

  // First, what a CONVENTIONAL profiler reports at the callee: one
  // undifferentiated number for db_sort.
  callpath::CallingContextTree merged;
  for (const auto& [label, cct] : callee.LabeledCcts()) {
    merged.MergeFrom(*cct);
  }
  std::printf("--- conventional (gprof-style) view of the callee ---\n%s\n",
              callpath::RenderGprofReport(merged, deployment.paths(), deployment.functions(), 5)
                  .c_str());

  // Now the transactional profile: the same db_sort routine appears
  // under two contexts with different costs — foo's transactions are
  // the expensive ones.
  std::printf("%s\n", callee.RenderTransactionalProfile().c_str());

  // And the stitched end-to-end view (Figure 7): request edges from
  // caller contexts to callee CCTs.
  profiler::Stitcher stitcher(deployment);
  std::printf("%s\n", stitcher.Render().c_str());
  return 0;
}
