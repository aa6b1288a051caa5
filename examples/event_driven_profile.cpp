// Profiling an event-driven application (paper §4, §8.2).
//
// Builds a miniature DNS-ish cache server on the instrumented event
// library and shows how transaction contexts distinguish the hit and
// miss paths through the SAME response handler — the distinction
// Figure 9 highlights for Squid's commHandleWrite.
//
// Build & run:  ./build/examples/event_driven_profile
#include <cstdio>

#include "src/events/event_loop.h"
#include "src/profiler/deployment.h"
#include "src/profiler/stage_profiler.h"
#include "src/sim/cpu.h"

int main() {
  using namespace whodunit;
  using events::EventLoop;

  sim::Scheduler sched;
  sim::CpuResource cpu(sched, 1);
  profiler::Deployment deployment;
  profiler::StageProfiler::Options opts;
  opts.name = "dns_cache";
  profiler::StageProfiler prof(deployment, opts);
  profiler::ThreadProfile& tp = prof.CreateThread("event_loop");

  EventLoop loop(sched, deployment.contexts());
  // The profiler follows the event library's current transaction
  // context — the only glue an application needs.
  loop.set_context_listener([&](context::NodeId node, bool sampled) {
    prof.SetSampled(tp, sampled);
    prof.SetLocalContext(tp, node);
  });
  deployment.set_element_namer([&](context::ElementKind kind, uint32_t id) {
    return kind == context::ElementKind::kHandler ? loop.HandlerName(id) : "?";
  });

  events::HandlerId hit_h = 0, miss_h = 0, respond_h = 0;
  const auto lookup_work = prof.RegisterFunction("cache_lookup");
  const auto send_work = prof.RegisterFunction("send_response");

  events::HandlerId query_h = loop.RegisterHandler(
      "query", [&](EventLoop::HandlerContext& hc) -> sim::Task<void> {
        auto f = prof.EnterFrame(tp, lookup_work);
        co_await cpu.Consume(prof.ChargeCpu(tp, sim::Micros(20)));
        // Even payloads hit the cache, odd ones miss.
        hc.loop.AddEvent(hc.payload % 2 == 0 ? hit_h : miss_h, hc.payload);
      });
  hit_h = loop.RegisterHandler("cache_hit",
                               [&](EventLoop::HandlerContext& hc) -> sim::Task<void> {
                                 co_await cpu.Consume(prof.ChargeCpu(tp, sim::Micros(5)));
                                 hc.loop.AddEvent(respond_h, hc.payload);
                               });
  miss_h = loop.RegisterHandler(
      "cache_miss", [&](EventLoop::HandlerContext& hc) -> sim::Task<void> {
        // A miss recursively resolves upstream: much more work.
        co_await cpu.Consume(prof.ChargeCpu(tp, sim::Millis(2)));
        hc.loop.AddEvent(respond_h, hc.payload);
      });
  respond_h = loop.RegisterHandler(
      "respond", [&](EventLoop::HandlerContext&) -> sim::Task<void> {
        auto f = prof.EnterFrame(tp, send_work);
        co_await cpu.Consume(prof.ChargeCpu(tp, sim::Micros(50)));
      });

  for (uint64_t q = 0; q < 1000; ++q) {
    loop.AddExternalEvent(query_h, q);
  }
  sim::Spawn(sched, loop.Run());
  sched.ScheduleAt(sim::Seconds(60), [&] { loop.Stop(); });
  sched.Run();

  // The `respond` handler ran 1000 times, but its cost splits across
  // two transaction contexts: [query, cache_hit, respond] and
  // [query, cache_miss, respond].
  std::printf("%s\n", prof.RenderTransactionalProfile().c_str());
  std::printf("events dispatched: %lu\n",
              static_cast<unsigned long>(loop.events_dispatched()));
  return 0;
}
