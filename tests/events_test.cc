#include "src/events/event_loop.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/context_testing.h"

namespace whodunit::events {
namespace {

using context::Element;
using context::ElementKind;
using Elements = std::vector<Element>;

Element H(HandlerId id) { return Element{ElementKind::kHandler, id}; }

struct LoopFixture {
  sim::Scheduler sched;
  context::ContextTree tree;
  EventLoop loop{sched, tree};
  std::vector<Elements> contexts_seen;

  LoopFixture() {
    loop.set_context_listener([this](context::NodeId node, bool) {
      contexts_seen.push_back(context::ElementsOf(tree, node));
    });
  }
};

TEST(EventLoopTest, HandlersRunAndContextsGrow) {
  LoopFixture f;
  std::vector<std::string> order;
  HandlerId read = 0;
  HandlerId accept = f.loop.RegisterHandler("accept", [&](EventLoop::HandlerContext& hc)
                                                          -> sim::Task<void> {
    order.push_back("accept");
    hc.loop.AddEvent(read, hc.payload);
    co_return;
  });
  read = f.loop.RegisterHandler("read", [&](EventLoop::HandlerContext&) -> sim::Task<void> {
    order.push_back("read");
    co_return;
  });

  f.loop.AddExternalEvent(accept, 1);
  sim::Spawn(f.sched, f.loop.Run());
  f.sched.ScheduleAt(sim::Seconds(1), [&] { f.loop.Stop(); });
  f.sched.Run();

  EXPECT_EQ(order, (std::vector<std::string>{"accept", "read"}));
  ASSERT_EQ(f.contexts_seen.size(), 2u);
  // First dispatch: context is just [accept].
  EXPECT_EQ(f.contexts_seen[0], Elements({H(accept)}));
  // Second dispatch: [accept, read] — the read event inherited the
  // accept handler's context.
  EXPECT_EQ(f.contexts_seen[1], Elements({H(accept), H(read)}));
}

TEST(EventLoopTest, RepeatedHandlerCollapses) {
  // An event handler re-arming itself (partial I/O) must not grow the
  // context: [read, read, read] collapses to [read].
  LoopFixture f;
  int runs = 0;
  HandlerId read = f.loop.RegisterHandler(
      "read", [&](EventLoop::HandlerContext& hc) -> sim::Task<void> {
        if (++runs < 3) {
          hc.loop.AddEvent(f.tree.LastElement(hc.loop.current_node()).id, hc.payload);
        }
        co_return;
      });
  f.loop.AddExternalEvent(read, 0);
  sim::Spawn(f.sched, f.loop.Run());
  f.sched.ScheduleAt(sim::Seconds(1), [&] { f.loop.Stop(); });
  f.sched.Run();
  EXPECT_EQ(runs, 3);
  for (const auto& c : f.contexts_seen) {
    EXPECT_EQ(c, Elements({H(read)}));
  }
}

TEST(EventLoopTest, PersistentConnectionLoopPruned) {
  // accept -> read -> write -> read -> write ... the paper's example:
  // pruning keeps the context bounded at [accept, read] / [accept,
  // read, write].
  LoopFixture f;
  HandlerId read_h = 0, write_h = 0;
  int requests = 0;
  HandlerId accept_h =
      f.loop.RegisterHandler("accept", [&](EventLoop::HandlerContext& hc) -> sim::Task<void> {
        hc.loop.AddEvent(read_h, hc.payload);
        co_return;
      });
  read_h = f.loop.RegisterHandler("read", [&](EventLoop::HandlerContext& hc) -> sim::Task<void> {
    hc.loop.AddEvent(write_h, hc.payload);
    co_return;
  });
  write_h =
      f.loop.RegisterHandler("write", [&](EventLoop::HandlerContext& hc) -> sim::Task<void> {
        if (++requests < 3) {
          hc.loop.AddEvent(read_h, hc.payload);  // next request, same connection
        }
        co_return;
      });

  f.loop.AddExternalEvent(accept_h, 7);
  sim::Spawn(f.sched, f.loop.Run());
  f.sched.ScheduleAt(sim::Seconds(1), [&] { f.loop.Stop(); });
  f.sched.Run();

  EXPECT_EQ(requests, 3);
  // No context ever exceeds 3 elements despite 3 round trips.
  for (const auto& c : f.contexts_seen) {
    EXPECT_LE(c.size(), 3u);
  }
  // And the write handler always ran under [accept, read, write].
  int write_dispatches = 0;
  for (const auto& c : f.contexts_seen) {
    if (!c.empty() && c.back() == H(write_h)) {
      ++write_dispatches;
      EXPECT_EQ(c, Elements({H(accept_h), H(read_h), H(write_h)}));
    }
  }
  EXPECT_EQ(write_dispatches, 3);
}

TEST(EventLoopTest, DistinctPathsDistinctContexts) {
  // A DNS-server-like split: hit and miss handlers create different
  // transaction contexts.
  LoopFixture f;
  HandlerId hit = 0, miss = 0;
  HandlerId lookup =
      f.loop.RegisterHandler("lookup", [&](EventLoop::HandlerContext& hc) -> sim::Task<void> {
        hc.loop.AddEvent(hc.payload == 0 ? hit : miss, hc.payload);
        co_return;
      });
  hit = f.loop.RegisterHandler("hit", [](EventLoop::HandlerContext&) -> sim::Task<void> {
    co_return;
  });
  miss = f.loop.RegisterHandler("miss", [](EventLoop::HandlerContext&) -> sim::Task<void> {
    co_return;
  });
  f.loop.AddExternalEvent(lookup, 0);
  f.loop.AddExternalEvent(lookup, 1);
  sim::Spawn(f.sched, f.loop.Run());
  f.sched.ScheduleAt(sim::Seconds(1), [&] { f.loop.Stop(); });
  f.sched.Run();

  // Dispatch order: lookup(0), lookup(1), then the queued hit/miss.
  ASSERT_EQ(f.contexts_seen.size(), 4u);
  EXPECT_EQ(f.contexts_seen[2], Elements({H(lookup), H(hit)}));
  EXPECT_EQ(f.contexts_seen[3], Elements({H(lookup), H(miss)}));
}

TEST(EventLoopTest, TrackingOffBehavesLikeStockLibevent) {
  LoopFixture f;
  f.loop.set_tracking(false);
  HandlerId b = 0;
  HandlerId a = f.loop.RegisterHandler("a", [&](EventLoop::HandlerContext& hc) -> sim::Task<void> {
    hc.loop.AddEvent(b, 0);
    co_return;
  });
  b = f.loop.RegisterHandler("b", [](EventLoop::HandlerContext&) -> sim::Task<void> {
    co_return;
  });
  f.loop.AddExternalEvent(a, 0);
  sim::Spawn(f.sched, f.loop.Run());
  f.sched.ScheduleAt(sim::Seconds(1), [&] { f.loop.Stop(); });
  f.sched.Run();
  EXPECT_EQ(f.loop.events_dispatched(), 2u);
  EXPECT_TRUE(f.contexts_seen.empty());
  EXPECT_EQ(f.loop.current_node(), context::kEmptyContext);
}

TEST(EventLoopTest, HandlersMayAwaitVirtualTime) {
  LoopFixture f;
  sim::SimTime done_at = 0;
  HandlerId slow =
      f.loop.RegisterHandler("slow", [&](EventLoop::HandlerContext& hc) -> sim::Task<void> {
        co_await sim::Delay{hc.loop.scheduler(), sim::Millis(5)};
        done_at = hc.loop.scheduler().now();
      });
  f.loop.AddExternalEvent(slow, 0);
  sim::Spawn(f.sched, f.loop.Run());
  f.sched.ScheduleAt(sim::Seconds(1), [&] { f.loop.Stop(); });
  f.sched.Run();
  EXPECT_EQ(done_at, sim::Millis(5));
}

}  // namespace
}  // namespace whodunit::events
