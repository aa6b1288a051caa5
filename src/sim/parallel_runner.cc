#include "src/sim/parallel_runner.h"

#include "src/util/shard_state.h"

namespace whodunit::sim {

ShardEnv::ShardEnv()
    : metrics_(std::make_unique<obs::MetricsRegistry>()),
      syms_(std::make_unique<util::SymbolTable>()) {}

ShardEnv::Scope::Scope(ShardEnv& env)
    : saved_counters_(util::SaveShardCounters()),
      metrics_scope_(env.metrics()),
      syms_scope_(env.symbols()) {
  util::ResetShardCounters();
}

ShardEnv::Scope::~Scope() { util::RestoreShardCounters(saved_counters_); }

void ShardEnv::FoldMetricsInto(obs::MetricsRegistry& target) const {
  target.MergeFrom(metrics_->Snapshot());
}

}  // namespace whodunit::sim
