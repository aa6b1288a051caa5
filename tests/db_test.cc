#include "src/db/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "src/crosstalk/crosstalk.h"
#include "src/sim/task.h"

namespace whodunit::db {
namespace {

using Kind = QueryStep::Kind;

struct Fixture {
  sim::Scheduler sched;
  sim::CpuResource cpu{sched, 1, "db_cpu"};
  Database database{sched, cpu, CostModel{}};
};

sim::Process RunQuery(Fixture& f, Query q, uint64_t tag, sim::SimTime* cost_out = nullptr) {
  sim::SimTime cost = co_await f.database.Execute(q, tag);
  if (cost_out != nullptr) {
    *cost_out = cost;
  }
}

TEST(DatabaseTest, EstimateCostComposesSteps) {
  Fixture f;
  f.database.CreateTable("t", 1000, LockGranularity::kTableLocks);
  Query q{"q", {{Kind::kScan, "t", 100}, {Kind::kPointRead, "t", 1}}};
  const CostModel& c = f.database.costs();
  EXPECT_EQ(f.database.EstimateCost(q),
            c.fixed_per_query + 100 * c.per_row_scan + c.per_point_read);
}

TEST(DatabaseTest, SortCostSuperlinear) {
  Fixture f;
  Query small{"s", {{Kind::kSort, "", 1000}}};
  Query large{"l", {{Kind::kSort, "", 10000}}};
  const auto cs = f.database.EstimateCost(small) - f.database.costs().fixed_per_query;
  const auto cl = f.database.EstimateCost(large) - f.database.costs().fixed_per_query;
  EXPECT_GT(cl, 10 * cs);  // n log n growth
}

TEST(DatabaseTest, ExecuteConsumesCpuTime) {
  Fixture f;
  f.database.CreateTable("t", 1000, LockGranularity::kTableLocks);
  Query q{"q", {{Kind::kScan, "t", 1000}}};
  sim::SimTime cost = 0;
  sim::Spawn(f.sched, RunQuery(f, q, 1, &cost));
  f.sched.Run();
  EXPECT_EQ(cost, f.database.EstimateCost(q));
  EXPECT_EQ(f.cpu.busy_time(), cost);
  // Wall time = disk wait (while holding locks) + CPU service.
  EXPECT_EQ(f.sched.now(), cost + f.database.EstimateDiskTime(q));
  EXPECT_EQ(f.database.queries_executed(), 1u);
}

TEST(DatabaseTest, ChargeHookInflatesConsumption) {
  Fixture f;
  f.database.CreateTable("t", 1000, LockGranularity::kTableLocks);
  Query q{"q", {{Kind::kScan, "t", 1000}}};
  sim::Spawn(f.sched, [](Fixture& fx, Query qq) -> sim::Process {
    co_await fx.database.Execute(qq, 1, [](sim::SimTime c) { return c + 500; });
  }(f, q));
  f.sched.Run();
  // The hook runs once for the per-query fixed cost and once per step:
  // two inflations of 500 for this one-step plan.
  EXPECT_EQ(f.cpu.busy_time(), f.database.EstimateCost(q) + 2 * 500);
}

TEST(DatabaseTest, MyisamReadersShareWritersExclude) {
  Fixture f;
  f.database.CreateTable("item", 1000, LockGranularity::kTableLocks);
  crosstalk::CrosstalkRecorder rec;
  f.database.SetLockObserver(&rec);

  Query read{"read", {{Kind::kScan, "item", 10000}}};           // 9 ms
  Query write{"write", {{Kind::kUpdateRow, "item", 1, 5}}};     // short

  // Two readers start together (share); the writer arrives during.
  sim::Spawn(f.sched, RunQuery(f, read, /*tag=*/1));
  sim::Spawn(f.sched, RunQuery(f, read, /*tag=*/2));
  sim::SpawnAfter(f.sched, sim::Millis(1), RunQuery(f, write, /*tag=*/3));
  f.sched.Run();

  // The writer waited for both readers (blame recorded), readers did
  // not wait for each other.
  EXPECT_EQ(rec.WaitCount(3), 1u);
  EXPECT_GT(rec.MeanWait(3), 0.0);
  EXPECT_EQ(rec.WaitCount(1), 0u);
  EXPECT_EQ(rec.WaitCount(2), 0u);
}

TEST(DatabaseTest, InnodbReadersDontBlockBehindWriter) {
  Fixture f;
  f.database.CreateTable("item", 1000, LockGranularity::kRowLocks);
  crosstalk::CrosstalkRecorder rec;
  f.database.SetLockObserver(&rec);

  Query write{"write", {{Kind::kScan, "item", 50000}, {Kind::kUpdateRow, "item", 1, 5}}};
  Query read{"read", {{Kind::kScan, "item", 10000}}};

  sim::Spawn(f.sched, RunQuery(f, write, 1));
  sim::SpawnAfter(f.sched, sim::Millis(1), RunQuery(f, read, 2));
  f.sched.Run();

  // MVCC: the reader acquired no lock at all.
  EXPECT_EQ(rec.WaitCount(2), 0u);
}

TEST(DatabaseTest, InnodbWritersOnSameRowStripeConflict) {
  Fixture f;
  f.database.CreateTable("item", 1000, LockGranularity::kRowLocks);
  crosstalk::CrosstalkRecorder rec;
  f.database.SetLockObserver(&rec);

  // Same row -> same stripe -> serialized.
  Query w1{"w1", {{Kind::kScan, "item", 20000}, {Kind::kUpdateRow, "item", 1, 7}}};
  Query w2{"w2", {{Kind::kUpdateRow, "item", 1, 7}}};
  sim::Spawn(f.sched, RunQuery(f, w1, 1));
  sim::SpawnAfter(f.sched, sim::Micros(100), RunQuery(f, w2, 2));
  f.sched.Run();
  EXPECT_EQ(rec.WaitCount(2), 1u);
}

TEST(DatabaseTest, MultiTableLocksAcquiredInNameOrder) {
  // Two queries touching the same two tables in opposite step order
  // must not deadlock (locks are acquired in canonical order).
  Fixture f;
  f.database.CreateTable("a", 100, LockGranularity::kTableLocks);
  f.database.CreateTable("b", 100, LockGranularity::kTableLocks);
  Query q1{"q1", {{Kind::kUpdateRow, "a", 1, 0}, {Kind::kUpdateRow, "b", 1, 0}}};
  Query q2{"q2", {{Kind::kUpdateRow, "b", 1, 0}, {Kind::kUpdateRow, "a", 1, 0}}};
  int done = 0;
  auto run = [&](Query q, uint64_t tag) -> sim::Process {
    co_await f.database.Execute(q, tag);
    ++done;
  };
  sim::Spawn(f.sched, run(q1, 1));
  sim::Spawn(f.sched, run(q2, 2));
  f.sched.Run();
  EXPECT_EQ(done, 2);
  EXPECT_FALSE(f.database.table("a").table_lock().held());
  EXPECT_FALSE(f.database.table("b").table_lock().held());
}

// Records every acquire and release in order, with the mode held.
class LockLog : public sim::LockObserver {
 public:
  struct Entry {
    const sim::SimMutex* lock;
    bool acquired;   // false: released
    bool exclusive;  // mode held at acquire
  };
  void OnAcquired(const sim::SimMutex& lock, uint64_t, uint64_t, sim::SimTime) override {
    entries.push_back({&lock, true, lock.held_exclusive()});
  }
  void OnReleased(const sim::SimMutex& lock, uint64_t) override {
    entries.push_back({&lock, false, false});
  }
  std::vector<Entry> entries;
};

TEST(DatabaseTest, LockSetTakesEachLockOnceInNameThenStripeOrder) {
  Fixture f;
  Table& zeta = f.database.CreateTable("zeta", 100, LockGranularity::kTableLocks);
  Table& alpha = f.database.CreateTable("alpha", 100, LockGranularity::kRowLocks);
  Table& mid = f.database.CreateTable("mid", 100, LockGranularity::kTableLocks);
  LockLog log;
  f.database.SetLockObserver(&log);

  // Steps name "mid" twice (both reads) and update alpha's stripe of
  // row 3 twice (rows 3 and 19 share it under 16 stripes).
  Query q{"q",
          {{Kind::kUpdateRow, "zeta", 1, 0},
           {Kind::kUpdateRow, "alpha", 1, 19},
           {Kind::kScan, "mid", 10},
           {Kind::kUpdateRow, "alpha", 1, 5},
           {Kind::kPointRead, "alpha", 1, 2},
           {Kind::kPointRead, "mid", 1, 1},
           {Kind::kUpdateRow, "alpha", 1, 3}}};
  ASSERT_EQ(&alpha.row_lock(3), &alpha.row_lock(19));
  sim::Spawn(f.sched, RunQuery(f, q, /*tag=*/1));
  f.sched.Run();

  // Name order, then stripe (mutex address) order within a table.
  std::vector<const sim::SimMutex*> stripes{&alpha.row_lock(3), &alpha.row_lock(5)};
  std::sort(stripes.begin(), stripes.end(), std::less<>{});
  const std::vector<std::pair<const sim::SimMutex*, bool>> expected_acquires{
      {stripes[0], true}, {stripes[1], true}, {&mid.table_lock(), false},
      {&zeta.table_lock(), true}};
  ASSERT_EQ(log.entries.size(), 2 * expected_acquires.size());
  for (size_t i = 0; i < expected_acquires.size(); ++i) {
    const LockLog::Entry& acquire = log.entries[i];
    EXPECT_TRUE(acquire.acquired) << i;
    EXPECT_EQ(acquire.lock, expected_acquires[i].first) << i;
    EXPECT_EQ(acquire.exclusive, expected_acquires[i].second) << i;
    // Released in reverse acquisition order.
    const LockLog::Entry& release = log.entries[log.entries.size() - 1 - i];
    EXPECT_FALSE(release.acquired) << i;
    EXPECT_EQ(release.lock, expected_acquires[i].first) << i;
  }
  for (const sim::SimMutex* lock :
       {stripes[0], stripes[1], static_cast<const sim::SimMutex*>(&mid.table_lock()),
        static_cast<const sim::SimMutex*>(&zeta.table_lock())}) {
    EXPECT_FALSE(lock->held());
    EXPECT_EQ(lock->acquire_count(), 1u);
  }
}

TEST(DatabaseTest, GranularityCanBeSwitched) {
  Fixture f;
  Table& t = f.database.CreateTable("item", 100, LockGranularity::kTableLocks);
  EXPECT_EQ(t.granularity(), LockGranularity::kTableLocks);
  t.set_granularity(LockGranularity::kRowLocks);
  EXPECT_EQ(f.database.table("item").granularity(), LockGranularity::kRowLocks);
}

}  // namespace
}  // namespace whodunit::db
