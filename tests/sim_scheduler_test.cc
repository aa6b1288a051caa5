#include "src/sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <new>
#include <utility>
#include <vector>

#include "src/sim/task.h"
#include "src/util/rng.h"

// Counts every global operator new in this binary, so a test can show
// that the scheduler does not touch the allocator once warm. The
// deletes are replaced too, to keep new/delete pairs matched under the
// sanitizers.
namespace {
std::atomic<uint64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t n) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}

void* CheckedAlloc(std::size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CheckedAlloc(n); }
void* operator new[](std::size_t n) { return CheckedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace whodunit::sim {
namespace {

TEST(SchedulerTest, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.ScheduleAt(30, [&] { order.push_back(3); });
  s.ScheduleAt(10, [&] { order.push_back(1); });
  s.ScheduleAt(20, [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(SchedulerTest, TiesBreakFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  s.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SchedulerTest, PastTimesClampToNow) {
  Scheduler s;
  SimTime seen = -1;
  s.ScheduleAt(100, [&] {
    s.ScheduleAt(50, [&] { seen = s.now(); });  // in the past
  });
  s.Run();
  EXPECT_EQ(seen, 100);
}

TEST(SchedulerTest, EventsCanScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      s.ScheduleAfter(1, chain);
    }
  };
  s.ScheduleAt(0, chain);
  s.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), 99);
}

TEST(SchedulerTest, RunUntilStopsAndAdvancesClock) {
  Scheduler s;
  int fired = 0;
  s.ScheduleAt(10, [&] { ++fired; });
  s.ScheduleAt(200, [&] { ++fired; });
  s.RunUntil(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 100);
  s.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, StepReturnsFalseWhenEmpty) {
  Scheduler s;
  EXPECT_FALSE(s.Step());
  s.ScheduleAt(1, [] {});
  EXPECT_TRUE(s.Step());
  EXPECT_FALSE(s.Step());
}

TEST(SchedulerTest, RunUntilIncludesEventsAtExactBoundary) {
  Scheduler s;
  int fired = 0;
  s.ScheduleAt(100, [&] { ++fired; });
  s.ScheduleAt(101, [&] { ++fired; });
  s.RunUntil(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 100);
  s.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, NegativeScheduleAfterClampsToNow) {
  Scheduler s;
  SimTime seen = -1;
  s.ScheduleAt(100, [&] {
    s.ScheduleAfter(-30, [&] { seen = s.now(); });
  });
  s.Run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(s.now(), 100);
}

TEST(SchedulerTest, FifoAmongHeavyTies) {
  // Thousands of events drawn from a handful of timestamps, so every
  // tie group is large and interleaved with the others in the heap.
  // The executed sequence must still be the exact (time, insertion
  // order) total order.
  Scheduler s;
  struct Rec {
    SimTime t;
    int i;
  };
  std::vector<Rec> order;
  util::Rng rng(7);
  constexpr int kEvents = 5000;
  for (int i = 0; i < kEvents; ++i) {
    const auto t = static_cast<SimTime>(rng.NextBelow(16) * 1000);
    s.ScheduleAt(t, [&order, t, i] { order.push_back({t, i}); });
  }
  s.Run();
  ASSERT_EQ(order.size(), static_cast<size_t>(kEvents));
  for (size_t k = 1; k < order.size(); ++k) {
    const bool in_order =
        order[k - 1].t < order[k].t ||
        (order[k - 1].t == order[k].t && order[k - 1].i < order[k].i);
    ASSERT_TRUE(in_order) << "at position " << k;
  }
  EXPECT_EQ(s.peak_queue_depth(), static_cast<uint64_t>(kEvents));
}

// Each fired event schedules one replacement 1-1000 ns ahead, so the
// pending population stays constant while Step() churns the queue.
struct Hold {
  Scheduler* sched;
  util::Rng* rng;
  void operator()() const {
    const auto dt = static_cast<SimTime>(1 + rng->NextBelow(1000));
    sched->ScheduleAfter(dt, Hold{sched, rng});
  }
};

TEST(SchedulerTest, SteadyStateStepsDoNotAllocate) {
  // A shallow queue that never drains: once warm, the calendar must
  // reuse its storage instead of growing behind consumed events.
  Scheduler s;
  util::Rng rng(42);
  for (int i = 0; i < 64; ++i) {
    s.ScheduleAt(static_cast<SimTime>(rng.NextBelow(1000)), Hold{&s, &rng});
  }
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(s.Step());
  }
  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000000; ++i) {
    s.Step();
  }
  const uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(s.queue_depth(), 64u);
}

// A reference calendar that shares no code with Scheduler: events keyed
// by (time, insertion seq) in an ordered multimap, so the map's own
// order is the specification the heap must match.
class ReferenceScheduler {
 public:
  void ScheduleAt(SimTime t, std::function<void()> cb) {
    events_.emplace(std::make_pair(std::max(t, now_), next_seq_++),
                    std::move(cb));
  }
  void ScheduleAfter(SimTime dt, std::function<void()> cb) {
    ScheduleAt(now_ + std::max<SimTime>(dt, 0), std::move(cb));
  }
  void Run() {
    while (!events_.empty()) {
      auto head = events_.begin();
      now_ = head->first.first;
      std::function<void()> cb = std::move(head->second);
      events_.erase(head);
      cb();
    }
  }

 private:
  std::multimap<std::pair<SimTime, uint64_t>, std::function<void()>> events_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
};

// Runs an identical randomized workload — events rescheduling further
// events with heavy timestamp collisions — on the given scheduler and
// returns the execution order of event ids.
template <typename S>
std::vector<int> RandomWorkloadOrder(uint64_t seed) {
  S s;
  util::Rng rng(seed);
  std::vector<int> order;
  int next_id = 0;
  constexpr int kMaxEvents = 20000;
  std::function<void(int)> fire = [&](int id) {
    order.push_back(id);
    const uint64_t kids = rng.NextBelow(3);
    for (uint64_t k = 0; k < kids && next_id < kMaxEvents; ++k) {
      const int cid = next_id++;
      // Mix zero/near-tie deltas with far jumps.
      const auto dt = static_cast<SimTime>(
          rng.NextBelow(4) == 0 ? rng.NextBelow(3) : rng.NextBelow(50000));
      s.ScheduleAfter(dt, [&fire, cid] { fire(cid); });
    }
  };
  while (next_id < 2000) {
    const int id = next_id++;
    const auto t = static_cast<SimTime>(rng.NextBelow(20000));
    s.ScheduleAt(t, [&fire, id] { fire(id); });
  }
  s.Run();
  return order;
}

TEST(SchedulerTest, MatchesSortedReferenceOnRandomWorkloads) {
  // Differential check: the heap scheduler and the sorted reference
  // must execute identical event sequences, including events scheduled
  // from inside callbacks.
  for (const uint64_t seed : {1ULL, 42ULL, 1234ULL}) {
    const std::vector<int> heap = RandomWorkloadOrder<Scheduler>(seed);
    const std::vector<int> ref = RandomWorkloadOrder<ReferenceScheduler>(seed);
    ASSERT_GE(heap.size(), 2000u) << "seed " << seed;
    EXPECT_EQ(heap, ref) << "seed " << seed;
  }
}

Process CountTo(Scheduler& sched, int n, int& counter) {
  for (int i = 0; i < n; ++i) {
    co_await Delay{sched, 10};
    ++counter;
  }
}

TEST(ProcessTest, DelayAdvancesVirtualTime) {
  Scheduler s;
  int counter = 0;
  Spawn(s, CountTo(s, 5, counter));
  s.Run();
  EXPECT_EQ(counter, 5);
  EXPECT_EQ(s.now(), 50);
}

TEST(ProcessTest, ConcurrentProcessesInterleave) {
  Scheduler s;
  int a = 0, b = 0;
  Spawn(s, CountTo(s, 3, a));
  Spawn(s, CountTo(s, 7, b));
  s.Run();
  EXPECT_EQ(a, 3);
  EXPECT_EQ(b, 7);
  EXPECT_EQ(s.now(), 70);
}

TEST(ProcessTest, SpawnAfterDelaysStart) {
  Scheduler s;
  int counter = 0;
  SpawnAfter(s, 100, CountTo(s, 1, counter));
  s.RunUntil(99);
  EXPECT_EQ(counter, 0);
  s.Run();
  EXPECT_EQ(counter, 1);
  EXPECT_EQ(s.now(), 110);
}

Task<int> AddAfter(Scheduler& sched, int x, int y) {
  co_await Delay{sched, 5};
  co_return x + y;
}

Process UseTask(Scheduler& sched, int& out) {
  out = co_await AddAfter(sched, 2, 3);
}

TEST(TaskTest, NestedTaskReturnsValue) {
  Scheduler s;
  int out = 0;
  Spawn(s, UseTask(s, out));
  s.Run();
  EXPECT_EQ(out, 5);
  EXPECT_EQ(s.now(), 5);
}

Task<void> Inner(Scheduler& sched, std::vector<int>& log) {
  log.push_back(1);
  co_await Delay{sched, 1};
  log.push_back(2);
}

Process Outer(Scheduler& sched, std::vector<int>& log) {
  co_await Inner(sched, log);
  log.push_back(3);
}

TEST(TaskTest, VoidTaskSequencing) {
  Scheduler s;
  std::vector<int> log;
  Spawn(s, Outer(s, log));
  s.Run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

Task<int> DeepChain(Scheduler& sched, int depth) {
  if (depth == 0) {
    co_return 0;
  }
  int below = co_await DeepChain(sched, depth - 1);
  co_return below + 1;
}

Process RunDeep(Scheduler& sched, int& out) { out = co_await DeepChain(sched, 5000); }

TEST(TaskTest, DeepChainsDoNotOverflowStack) {
  Scheduler s;
  int out = 0;
  Spawn(s, RunDeep(s, out));
  s.Run();
  EXPECT_EQ(out, 5000);
}

}  // namespace
}  // namespace whodunit::sim
