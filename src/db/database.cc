#include "src/db/database.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <utility>

namespace whodunit::db {

Table::Table(sim::Scheduler& sched, std::string name, uint64_t rows,
             LockGranularity granularity, int row_stripes)
    : name_(std::move(name)), rows_(rows), granularity_(granularity) {
  table_lock_ = std::make_unique<sim::SimMutex>(sched, name_ + ".table_lock");
  row_stripes_.reserve(static_cast<size_t>(row_stripes));
  for (int i = 0; i < row_stripes; ++i) {
    row_stripes_.push_back(
        std::make_unique<sim::SimMutex>(sched, name_ + ".row_stripe_" + std::to_string(i)));
  }
}

void Table::SetLockObserver(sim::LockObserver* observer) {
  table_lock_->set_observer(observer);
  for (auto& stripe : row_stripes_) {
    stripe->set_observer(observer);
  }
}

Database::Database(sim::Scheduler& sched, sim::CpuResource& cpu, CostModel costs)
    : sched_(sched), cpu_(cpu), costs_(costs) {}

Table& Database::CreateTable(std::string_view name, uint64_t rows,
                             LockGranularity granularity) {
  auto table = std::make_unique<Table>(sched_, std::string(name), rows, granularity);
  Table& ref = *table;
  tables_.emplace(std::string(name), std::move(table));
  return ref;
}

Table& Database::table(std::string_view name) {
  auto it = tables_.find(name);
  assert(it != tables_.end() && "unknown table");
  return *it->second;
}

bool Database::HasTable(std::string_view name) const {
  return tables_.contains(name);
}

void Database::SetLockObserver(sim::LockObserver* observer) {
  for (auto& [name, table] : tables_) {
    table->SetLockObserver(observer);
  }
}

sim::SimTime Database::StepCost(const QueryStep& step) const {
  const auto rows = static_cast<sim::SimTime>(step.rows_touched);
  switch (step.kind) {
    case QueryStep::Kind::kScan:
      return rows * costs_.per_row_scan;
    case QueryStep::Kind::kSort: {
      // n log2(n) comparisons, per-row-sort cost per comparison unit.
      const double n = static_cast<double>(step.rows_touched);
      const double units = n <= 1 ? 1.0 : n * std::log2(n) / 10.0;
      return static_cast<sim::SimTime>(units * static_cast<double>(costs_.per_row_sort));
    }
    case QueryStep::Kind::kTempTable:
      return rows * costs_.per_row_temp;
    case QueryStep::Kind::kPointRead:
      return costs_.per_point_read;
    case QueryStep::Kind::kUpdateRow:
      return costs_.per_row_update;
  }
  return 0;
}

sim::SimTime Database::EstimateCost(const Query& query) const {
  sim::SimTime cost = costs_.fixed_per_query;
  for (const QueryStep& step : query.steps) {
    cost += StepCost(step);
  }
  return cost;
}

sim::SimTime Database::EstimateDiskTime(const Query& query) const {
  sim::SimTime disk = 0;
  for (const QueryStep& step : query.steps) {
    if (step.kind == QueryStep::Kind::kScan) {
      disk += static_cast<sim::SimTime>(step.rows_touched) * costs_.per_row_disk;
    }
  }
  return disk;
}

sim::Task<sim::SimTime> Database::Execute(const Query& query, uint64_t tag, ChargeHook charge,
                                          StepHook step_hook, LockWaitHook lock_wait) {
  ++queries_executed_;

  // Work out the lock set. MySQL 4's MyISAM path acquires all table
  // locks up front: per table, the strongest access the plan performs.
  // InnoDB readers are MVCC (no lock); its writers lock the row stripes
  // they update. The set is kept sorted by (table name, stripe
  // address): ordered acquisition is deadlock-free. A lock the plan
  // names twice is held once, exclusive if any step writes.
  struct Lock {
    const Table* table;
    sim::SimMutex* mutex;
    sim::LockMode mode;
  };
  // Most plans lock one or two tables; a larger set spills to the
  // arena pool.
  util::PooledVec<Lock, 2> locks;
  for (const QueryStep& step : query.steps) {
    if (step.table.empty()) {
      continue;  // pure CPU step (sort / temp table)
    }
    Table& t = table(step.table);
    const bool writes = step.kind == QueryStep::Kind::kUpdateRow;
    sim::SimMutex* mutex = nullptr;
    if (t.granularity() == LockGranularity::kTableLocks) {
      mutex = &t.table_lock();
    } else if (writes) {
      mutex = &t.row_lock(step.row);
    } else {
      continue;
    }
    const sim::LockMode mode = writes ? sim::LockMode::kExclusive : sim::LockMode::kShared;
    size_t at = 0;
    while (at < locks.size() &&
           (locks[at].table->name() < t.name() ||
            (locks[at].table == &t && std::less<>{}(locks[at].mutex, mutex)))) {
      ++at;
    }
    if (at < locks.size() && locks[at].mutex == mutex) {
      if (writes) {
        locks[at].mode = sim::LockMode::kExclusive;
      }
      continue;
    }
    locks.push_back(Lock{&t, mutex, mode});
    std::rotate(locks.begin() + at, locks.end() - 1, locks.end());
  }

  // Acquire. The virtual time this loop blocks is the query's lock
  // wait, reported through `lock_wait` for latency attribution.
  const sim::SimTime acquire_start = sched_.now();
  for (const Lock& lock : locks) {
    co_await lock.mutex->Acquire(tag, lock.mode);
  }

  const sim::SimTime lock_wait_ns = sched_.now() - acquire_start;
  if (lock_wait && lock_wait_ns > 0) {
    lock_wait(lock_wait_ns);
  }

  // Execute: disk waits and the whole plan's CPU happen while holding
  // the locks (the behaviour that creates crosstalk).
  const sim::SimTime disk = EstimateDiskTime(query);
  if (disk > 0) {
    co_await sim::Delay{sched_, disk};
  }
  sim::SimTime raw_cost = costs_.fixed_per_query;
  sim::SimTime charged = charge ? charge(costs_.fixed_per_query) : costs_.fixed_per_query;
  for (const QueryStep& step : query.steps) {
    const sim::SimTime raw_step = StepCost(step);
    raw_cost += raw_step;
    if (step_hook) {
      charged += step_hook(step, raw_step);
    } else if (charge) {
      charged += charge(raw_step);
    } else {
      charged += raw_step;
    }
  }
  co_await cpu_.Consume(charged);

  for (size_t i = locks.size(); i-- > 0;) {
    locks[i].mutex->Release(tag);
  }
  co_return raw_cost;
}

}  // namespace whodunit::db
