// Armed events (commSetSelect pattern) and the per-lock crosstalk
// report.
#include <gtest/gtest.h>

#include "src/crosstalk/crosstalk.h"
#include "src/events/event_loop.h"
#include "tests/context_testing.h"

namespace whodunit {
namespace {

using context::Element;
using context::ElementKind;
using events::EventLoop;

TEST(ArmedEventTest, PostedEventKeepsRegistrationContext) {
  // An I/O completion handler must run under the context current when
  // interest was REGISTERED, not whatever the loop ran in between.
  sim::Scheduler sched;
  context::ContextTree tree;
  EventLoop loop(sched, tree);
  std::vector<std::vector<Element>> reply_ctxts;
  events::HandlerId reply_h = 0, other_h = 0;

  events::HandlerId start_h = loop.RegisterHandler(
      "start", [&](EventLoop::HandlerContext& hc) -> sim::Task<void> {
        events::Event armed = hc.loop.MakeEvent(reply_h, hc.payload);
        // Simulate async I/O: the event fires 10 ms later, after other
        // unrelated handlers have run.
        sched.ScheduleAfter(sim::Millis(10),
                            [&hc, armed = std::move(armed)]() mutable {
                              hc.loop.Post(std::move(armed));
                            });
        co_return;
      });
  reply_h = loop.RegisterHandler("reply", [&](EventLoop::HandlerContext& hc) -> sim::Task<void> {
    reply_ctxts.push_back(context::ElementsOf(tree, hc.loop.current_node()));
    co_return;
  });
  other_h = loop.RegisterHandler("other", [](EventLoop::HandlerContext&) -> sim::Task<void> {
    co_return;
  });

  loop.AddExternalEvent(start_h, 1);
  // Unrelated traffic runs while the I/O is outstanding.
  for (int i = 0; i < 5; ++i) {
    loop.AddExternalEvent(other_h, 0);
  }
  sim::Spawn(sched, loop.Run());
  sched.ScheduleAt(sim::Seconds(1), [&] { loop.Stop(); });
  sched.Run();

  ASSERT_EQ(reply_ctxts.size(), 1u);
  EXPECT_EQ(reply_ctxts[0],
            (std::vector<Element>{Element{ElementKind::kHandler, start_h},
                                  Element{ElementKind::kHandler, reply_h}}));
}

sim::Process HoldFor(sim::Scheduler& sched, sim::SimMutex& m, uint64_t tag, sim::SimTime hold) {
  co_await m.Acquire(tag);
  co_await sim::Delay{sched, hold};
  m.Release(tag);
}

TEST(CrosstalkLockRowsTest, AttributesWaitsToNamedLocks) {
  sim::Scheduler sched;
  sim::SimMutex item(sched, "item.table_lock");
  sim::SimMutex orders(sched, "orders.table_lock");
  crosstalk::CrosstalkRecorder rec;
  item.set_observer(&rec);
  orders.set_observer(&rec);

  sim::Spawn(sched, HoldFor(sched, item, 1, 100));
  sim::SpawnAfter(sched, 10, HoldFor(sched, item, 2, 10));   // waits 90 on item
  sim::Spawn(sched, HoldFor(sched, orders, 3, 30));
  sim::SpawnAfter(sched, 20, HoldFor(sched, orders, 4, 10)); // waits 10 on orders
  sched.Run();

  auto rows = rec.LockRows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].lock_name, "item.table_lock");  // heaviest first
  EXPECT_DOUBLE_EQ(rows[0].total_wait_ns, 90.0);
  EXPECT_EQ(rows[0].count, 1u);
  EXPECT_EQ(rows[1].lock_name, "orders.table_lock");
  std::string text = rec.Render([](uint64_t t) { return std::to_string(t); });
  EXPECT_NE(text.find("item.table_lock"), std::string::npos);
}

}  // namespace
}  // namespace whodunit
