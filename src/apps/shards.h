// The apps' shard fan-out (docs/PERFORMANCE.md "Parallel execution").
//
// Shard k of `options.shards` runs a scaled-down copy of the app with
// its slice of the clients (the first clients % shards shards get one
// more), seed + k, and sample_seed + k (an unset sample_seed stays
// unset). The split depends only on the options, never on
// `options.threads`, so a fold of the outputs in shard order is
// byte-identical at any thread count.
#ifndef SRC_APPS_SHARDS_H_
#define SRC_APPS_SHARDS_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/profiler/profile.h"
#include "src/sim/parallel_runner.h"

namespace whodunit::apps {

template <typename Result>
struct ShardOutput {
  Result result;
  profiler::Profile profile;
};

// Runs `run(shard_options, shard, &profile)` — build the app, run it,
// fill the profile, return the result — for every shard on
// `options.threads` threads. Folds the shards' metrics into the
// caller's registry and returns the outputs, both in shard order.
template <typename Options, typename RunFn>
auto RunShards(const Options& options, RunFn&& run) {
  using Result = decltype(run(options, size_t{0}, static_cast<profiler::Profile*>(nullptr)));
  const int shards = options.shards;
  auto runs = sim::ParallelRunner::Run(
      static_cast<size_t>(shards), static_cast<size_t>(options.threads),
      [&options, &run, shards](size_t shard, sim::ShardEnv&) {
        Options shard_options = options;
        shard_options.shards = 1;
        shard_options.threads = 1;
        shard_options.clients = options.clients / shards +
                                (static_cast<int>(shard) < options.clients % shards ? 1 : 0);
        shard_options.seed = options.seed + shard;
        shard_options.sample_seed =
            options.sample_seed != 0 ? options.sample_seed + shard : 0;
        ShardOutput<Result> out;
        out.result = run(std::move(shard_options), shard, &out.profile);
        return out;
      });
  std::vector<ShardOutput<Result>> outputs;
  for (auto& shard_run : runs) {
    shard_run.env->FoldMetricsInto(obs::Registry());
    outputs.push_back(std::move(shard_run.result));
  }
  return outputs;
}

}  // namespace whodunit::apps

#endif  // SRC_APPS_SHARDS_H_
