// Shard-parallel simulation with deterministic profile merge.
//
// A workload that decomposes into independent jobs — fig12's client-
// count sweep points, a fixed partition of a client population — can
// run each job as its own fully self-contained deployment: a private
// Scheduler, context tree, flow dictionaries, metrics registry,
// and (optionally) live daemon. Nothing is shared between shards while
// they run, so shards are embarrassingly parallel; the only cross-shard
// step is the merge, and the merge runs serially on the caller's
// thread in canonical shard order.
//
// Determinism contract: the *logical* decomposition (how many jobs,
// what each simulates, each job's seed) is part of the workload
// definition and never depends on the thread count. Every job runs
// inside a fresh ShardEnv even when threads == 1, and the merge folds
// shard results in shard-index order, so the merged profile is
// byte-identical regardless of thread interleaving — and identical to
// a serial run of the same job list.
#ifndef SRC_SIM_PARALLEL_RUNNER_H_
#define SRC_SIM_PARALLEL_RUNNER_H_

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/symbol_table.h"
#include "src/util/thread_pool.h"

namespace whodunit::sim {

// One shard's private process-globals: everything the profiler
// pipeline would otherwise reach through process-wide statics. (The
// context tree is not one of them: each profiler::Deployment owns its
// own.)
class ShardEnv {
 public:
  ShardEnv();
  ShardEnv(const ShardEnv&) = delete;
  ShardEnv& operator=(const ShardEnv&) = delete;

  obs::MetricsRegistry& metrics() { return *metrics_; }
  const obs::MetricsRegistry& metrics() const { return *metrics_; }
  util::SymbolTable& symbols() { return *syms_; }
  const util::SymbolTable& symbols() const { return *syms_; }

  // Installs this env as the calling thread's current metrics
  // registry and symbol table, and restarts the shard-
  // registered thread-local id allocators (lock ids, program ids)
  // from their fresh seeds. Restores everything on destruction.
  class Scope {
   public:
    explicit Scope(ShardEnv& env);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::vector<uint64_t> saved_counters_;
    obs::ScopedMetricsRegistry metrics_scope_;
    util::ScopedSymbolTable syms_scope_;
  };

  // Folds this shard's metrics into `target` (counters and histogram
  // buckets add; gauges add). Call in canonical shard order for
  // byte-identical exports.
  void FoldMetricsInto(obs::MetricsRegistry& target) const;

 private:
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  // Per-shard symbol table: each shard interns its own SymIds; the
  // merge remaps them through SymbolTable::MergeFrom.
  std::unique_ptr<util::SymbolTable> syms_;
};

// A completed shard: the job's result plus the env it ran in, whose
// metrics registry the caller folds (ShardEnv::FoldMetricsInto).
template <typename R>
struct ShardRun {
  R result{};
  std::unique_ptr<ShardEnv> env;
};

class ParallelRunner {
 public:
  // Runs `fn(shard_index, env)` for each shard on a pool of `threads`
  // workers (1 = inline, deterministic-serial). Each invocation runs
  // under its own ShardEnv::Scope. Returns the completed shards in
  // shard-index order — merge them in that order.
  //
  // `fn` must not throw; an escaping exception terminates the process
  // (it would otherwise unwind a pool worker).
  template <typename Fn>
  static auto Run(size_t shards, size_t threads, Fn&& fn) {
    using R = std::decay_t<decltype(fn(size_t{0}, std::declval<ShardEnv&>()))>;
    static_assert(std::is_default_constructible_v<R>,
                  "shard result type must be default-constructible");
    std::vector<ShardRun<R>> runs(shards);
    for (auto& run : runs) {
      run.env = std::make_unique<ShardEnv>();
    }
    util::ThreadPool pool(threads);
    for (size_t i = 0; i < shards; ++i) {
      pool.Submit([&runs, &fn, i] {
        ShardEnv::Scope scope(*runs[i].env);
        runs[i].result = fn(i, *runs[i].env);
      });
    }
    pool.Wait();
    return runs;
  }
};

}  // namespace whodunit::sim

#endif  // SRC_SIM_PARALLEL_RUNNER_H_
