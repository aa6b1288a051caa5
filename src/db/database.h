// MiniDB: the database substrate standing in for MySQL 4.0.25.
//
// The reproduced experiments need exactly three things from the
// database (DESIGN.md §2):
//   * a query cost model (scans, sorts, temp tables, point ops) that
//     charges a CPU resource in virtual time;
//   * MyISAM-style table locking vs InnoDB-style row locking — the
//     mechanism behind the paper's Figure 11 optimization (converting
//     the `item` table to InnoDB cuts AdminConfirm's crosstalk);
//   * lock instrumentation so transaction crosstalk (§6) can be
//     attributed to (waiter, holder) transaction-type pairs.
//
// Locking model:
//   kTableLocks (MyISAM): readers take the table lock shared, writers
//     take it exclusive.
//   kRowLocks (InnoDB): readers run lock-free (MVCC consistent reads),
//     writers lock only a row-hash stripe of the table.
#ifndef SRC_DB_DATABASE_H_
#define SRC_DB_DATABASE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/sim/cpu.h"
#include "src/sim/lock.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"
#include "src/util/function_ref.h"
#include "src/util/pooled_vec.h"

namespace whodunit::db {

enum class LockGranularity {
  kTableLocks,  // MyISAM
  kRowLocks,    // InnoDB
};

class Table {
 public:
  Table(sim::Scheduler& sched, std::string name, uint64_t rows, LockGranularity granularity,
        int row_stripes = 16);

  const std::string& name() const { return name_; }
  uint64_t rows() const { return rows_; }
  LockGranularity granularity() const { return granularity_; }
  void set_granularity(LockGranularity g) { granularity_ = g; }

  sim::SimMutex& table_lock() { return *table_lock_; }
  sim::SimMutex& row_lock(uint64_t row) { return *row_stripes_[row % row_stripes_.size()]; }

  void SetLockObserver(sim::LockObserver* observer);

 private:
  std::string name_;
  uint64_t rows_;
  LockGranularity granularity_;
  std::unique_ptr<sim::SimMutex> table_lock_;
  std::vector<std::unique_ptr<sim::SimMutex>> row_stripes_;
};

// One step of a query plan.
//
// A plan borrows its names: QueryStep::table and Query::name view
// strings the plan does not own, so building a plan copies no string.
// The viewed characters must outlive every Execute of the plan (the
// TPC-W plans in src/workload/tpcw.cc name string literals, which
// live for the whole program).
struct QueryStep {
  enum class Kind {
    kScan,       // read rows_touched rows of `table` (shared access)
    kSort,       // sort rows_touched records (CPU only, no new locks)
    kTempTable,  // materialize rows_touched rows (CPU only)
    kPointRead,  // read one row (shared access)
    kUpdateRow,  // write one row (exclusive access on table or row)
  };
  Kind kind;
  std::string_view table;  // empty for CPU-only steps
  uint64_t rows_touched = 1;
  uint64_t row = 0;  // for kUpdateRow / kPointRead
};

struct Query {
  std::string_view name;
  // Arena-backed: a plan's steps recycle a pool block instead of
  // calling malloc, and moving a plan between messages moves a pointer.
  util::PooledVec<QueryStep> steps;
};

// Cost model constants (per step kind); see workload/calibration.h for
// the calibrated values used in the experiments.
struct CostModel {
  sim::SimTime per_row_scan = sim::Nanos(1000);
  sim::SimTime per_row_sort = sim::Nanos(2800);
  sim::SimTime per_row_temp = sim::Nanos(1700);
  sim::SimTime per_point_read = sim::Micros(170);
  sim::SimTime per_row_update = sim::Micros(450);
  sim::SimTime fixed_per_query = sim::Micros(135);
  // Disk time per scanned row (buffer-pool misses). Charged as I/O
  // wait, not CPU — but it is incurred WHILE HOLDING the query's
  // locks, which is precisely why MyISAM table locks hurt and InnoDB
  // row locks help (Figure 11).
  sim::SimTime per_row_disk = sim::Nanos(600);
};

class Database {
 public:
  // The hooks are borrowed for one Execute (util::FunctionRef): each
  // must outlive the co_await of the call, as a lambda written in the
  // call expression does.
  //
  // charge_cpu: maps raw CPU cost to the cost actually consumed (the
  // profiler's overhead hook); identity by default.
  using ChargeHook = util::FunctionRef<sim::SimTime(sim::SimTime)>;
  // Per-step hook: invoked once per plan step with the step and its
  // raw cost; returns the cost to consume. Lets the profiler attribute
  // CPU to per-step call-path frames (row_scan, sort_records, ...) —
  // the paper's §1 example of blaming the database sort routine.
  using StepHook = util::FunctionRef<sim::SimTime(const QueryStep&, sim::SimTime)>;
  // Invoked with the virtual time the plan spent blocked acquiring its
  // lock set (only when > 0) — the kLockWait attribution feed
  // (docs/OBSERVABILITY.md).
  using LockWaitHook = util::FunctionRef<void(sim::SimTime)>;

  Database(sim::Scheduler& sched, sim::CpuResource& cpu, CostModel costs);

  Table& CreateTable(std::string_view name, uint64_t rows, LockGranularity granularity);
  Table& table(std::string_view name);
  bool HasTable(std::string_view name) const;

  // Observes every table/row lock (crosstalk recording).
  void SetLockObserver(sim::LockObserver* observer);

  // Executes a query on behalf of transaction type `tag` (the
  // crosstalk tag). Acquires the locks the plan needs in (table name,
  // row stripe) order, performs the plan's disk I/O, charges the CPU
  // resource (through `charge` if provided), releases in reverse
  // order, and co_returns the raw (pre-overhead) CPU cost consumed.
  sim::Task<sim::SimTime> Execute(const Query& query, uint64_t tag, ChargeHook charge = nullptr,
                                  StepHook step_hook = nullptr,
                                  LockWaitHook lock_wait = nullptr);

  // Raw CPU cost of one plan step.
  sim::SimTime StepCost(const QueryStep& step) const;

  // Pure cost estimation (no locks, no CPU): used by tests and for
  // calibration reporting.
  sim::SimTime EstimateCost(const Query& query) const;
  // Disk wait the plan incurs while holding its locks.
  sim::SimTime EstimateDiskTime(const Query& query) const;

  uint64_t queries_executed() const { return queries_executed_; }
  const CostModel& costs() const { return costs_; }

 private:
  sim::Scheduler& sched_;
  sim::CpuResource& cpu_;
  CostModel costs_;
  // Transparent hash and equality: table(name) looks up a string_view
  // without building a std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  std::unordered_map<std::string, std::unique_ptr<Table>, NameHash, std::equal_to<>>
      tables_;
  uint64_t queries_executed_ = 0;
};

}  // namespace whodunit::db

#endif  // SRC_DB_DATABASE_H_
