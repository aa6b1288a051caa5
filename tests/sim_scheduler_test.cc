#include "src/sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <limits>
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

// A process that sleeps 1-1000 ns per round until told to stop: each
// round is one bare resume key in the calendar.
Process Sleeper(Scheduler& sched, util::Rng& rng, const bool& stop) {
  while (!stop) {
    co_await Delay{sched, static_cast<SimTime>(1 + rng.NextBelow(1000))};
  }
}

TEST(SchedulerTest, SteadyStateResumesDoNotAllocate) {
  Scheduler s;
  util::Rng rng(7);
  bool stop = false;
  for (int i = 0; i < 64; ++i) {
    Spawn(s, Sleeper(s, rng, stop));
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
  stop = true;
  s.Run();
}

Process LogStart(int id, std::vector<int>& log) {
  log.push_back(id);
  co_return;
}

TEST(SchedulerTest, ResumesAndCallbacksShareOneFifo) {
  // Resume keys and callback slots are ordered by the same (time, seq)
  // key, so same-time entries run in insertion order whatever their kind.
  Scheduler s;
  std::vector<int> log;
  for (int id = 0; id < 12; ++id) {
    if (id % 3 == 0) {
      SpawnAfter(s, 5, LogStart(id, log));
    } else {
      s.ScheduleAt(5, [&log, id] { log.push_back(id); });
    }
  }
  s.Run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(s.events_executed(), 12u);
}

// A reference calendar that shares no code with Scheduler: events keyed
// by (time, insertion seq) in an ordered multimap, so the map's own
// order is the specification the heap must match.
class ReferenceScheduler {
 public:
  SimTime now() const { return now_; }
  bool empty() const { return events_.empty(); }
  uint64_t peak_queue_depth() const { return peak_depth_; }

  void ScheduleAt(SimTime t, std::function<void()> cb) {
    events_.emplace(std::make_pair(std::max(t, now_), next_seq_++),
                    std::move(cb));
    peak_depth_ = std::max<uint64_t>(peak_depth_, events_.size());
  }
  void ScheduleAfter(SimTime dt, std::function<void()> cb) {
    ScheduleAt(now_ + std::max<SimTime>(dt, 0), std::move(cb));
  }
  void Run() { Drain(std::numeric_limits<SimTime>::max()); }
  void RunUntil(SimTime t) {
    Drain(t);
    now_ = std::max(now_, t);
  }

 private:
  void Drain(SimTime t) {
    while (!events_.empty() && events_.begin()->first.first <= t) {
      auto head = events_.begin();
      now_ = head->first.first;
      std::function<void()> cb = std::move(head->second);
      events_.erase(head);
      cb();
    }
  }

  std::multimap<std::pair<SimTime, uint64_t>, std::function<void()>> events_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t peak_depth_ = 0;
};

struct Fired {
  int id;  // -1 marks the end of a RunUntil call
  SimTime now;
  bool operator==(const Fired&) const = default;
};

struct WorkloadRun {
  std::vector<Fired> order;
  uint64_t peak_depth = 0;
};

// Runs an identical randomized workload on the given scheduler and
// records every firing with its virtual time. Events reschedule further
// events with heavy timestamp collisions, over a queue deep enough for
// 8+ levels of the 4-ary heap, with bursts of hundreds of zero-delay
// pushes, negative delays, and payloads too large for Event's inline
// buffer (so arena-backed events land in reused slots). The outer loop runs
// to random RunUntil cut points and records the clock after each.
template <typename S>
WorkloadRun RandomWorkloadRun(uint64_t seed) {
  S s;
  util::Rng rng(seed);
  WorkloadRun run;
  int next_id = 0;
  constexpr int kInitial = 60000;
  constexpr int kMaxEvents = 200000;
  std::function<void(int)> fire;
  auto schedule_after = [&](SimTime dt) {
    const int id = next_id++;
    if (rng.NextBelow(2) == 0) {
      s.ScheduleAfter(dt, [&fire, id] { fire(id); });
    } else {
      std::array<uint64_t, 8> pad{};
      pad[0] = static_cast<uint64_t>(id);
      static_assert(sizeof(pad) > Event::kInlineBytes);
      s.ScheduleAfter(dt, [&fire, pad] { fire(static_cast<int>(pad[0])); });
    }
  };
  fire = [&](int id) {
    run.order.push_back({id, s.now()});
    if (next_id >= kMaxEvents) {
      return;
    }
    // About one child per firing, so the queue stays deep while it
    // churns: a rare burst, a negative delay, a near-tie or far forward
    // delay, or none.
    const uint64_t roll = rng.NextBelow(1024);
    if (roll == 0) {
      const uint64_t burst = 100 + rng.NextBelow(400);
      for (uint64_t k = 0; k < burst && next_id < kMaxEvents; ++k) {
        schedule_after(0);
      }
    } else if (roll < 256) {
      schedule_after(-1 - static_cast<SimTime>(rng.NextBelow(100000)));
    } else if (roll < 512) {
      schedule_after(static_cast<SimTime>(rng.NextBelow(3)));
    } else if (roll < 768) {
      schedule_after(static_cast<SimTime>(rng.NextBelow(100000)));
    }
  };
  while (next_id < kInitial) {
    const int id = next_id++;
    const auto t = static_cast<SimTime>(rng.NextBelow(1000000));
    s.ScheduleAt(t, [&fire, id] { fire(id); });
  }
  SimTime cut = 0;
  while (!s.empty()) {
    cut += static_cast<SimTime>(rng.NextBelow(40000));
    s.RunUntil(cut);
    run.order.push_back({-1, s.now()});
  }
  run.peak_depth = s.peak_queue_depth();
  return run;
}

TEST(SchedulerTest, MatchesSortedReferenceOnRandomWorkloads) {
  // Differential check: the heap scheduler and the sorted reference
  // must execute identical event sequences at identical times, including
  // events scheduled from inside callbacks, and agree on the clock after
  // every RunUntil and on the peak depth.
  for (const uint64_t seed : {1ULL, 42ULL, 1234ULL}) {
    const WorkloadRun heap = RandomWorkloadRun<Scheduler>(seed);
    const WorkloadRun ref = RandomWorkloadRun<ReferenceScheduler>(seed);
    ASSERT_GE(heap.peak_depth, 50000u) << "seed " << seed;
    EXPECT_EQ(heap.peak_depth, ref.peak_depth) << "seed " << seed;
    ASSERT_EQ(heap.order.size(), ref.order.size()) << "seed " << seed;
    const auto diverge =
        std::mismatch(heap.order.begin(), heap.order.end(), ref.order.begin());
    EXPECT_EQ(diverge.first - heap.order.begin(),
              static_cast<std::ptrdiff_t>(heap.order.size()))
        << "seed " << seed << ": first divergence at that position";
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
