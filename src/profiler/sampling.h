// Production-mode transaction sampling (docs/PRODUCTION.md).
//
// Whodunit's §8 overhead numbers assume every transaction is profiled;
// production deployments instead flip one cheap coin per top-level
// transaction (FoundationDB's `profile client set 0.01 100MB` model)
// and pay the full tracking cost — sampler, synopsis piggybacking,
// shm flow emulation, live publish — only for the sampled fraction.
//
// The decision is a stateless hash of (seed, decision index), not a
// stateful RNG stream: every shard draws its decisions in its own
// deterministic scheduler order, so the decision sequence depends only
// on the workload definition (seed + shard decomposition), never on
// how many pool threads ran the shards. That is what keeps the
// shard-determinism contract intact at any rate.
#ifndef SRC_PROFILER_SAMPLING_H_
#define SRC_PROFILER_SAMPLING_H_

#include <cstdint>

#include "src/obs/metrics.h"

namespace whodunit::profiler {

struct SamplingConfig {
  // Probability a fresh top-level transaction is profiled. 1.0 (the
  // default) keeps the pre-sampling behaviour byte-for-byte: every
  // transaction is sampled and no decision hash is even computed.
  double rate = 1.0;
  // Decision-stream seed. Shard k of a sharded run must use a
  // distinct seed (apps derive base_seed + shard) so shards sample
  // independent subsets.
  uint64_t seed = 0;
};

class SamplingPolicy {
 public:
  // Counters resolve against obs::Registry() at construction so a
  // policy built inside a shard isolate reports into that shard's
  // registry (same rule as StageProfiler's counters).
  SamplingPolicy();

  void Configure(const SamplingConfig& config);
  const SamplingConfig& config() const { return config_; }

  // True when rate >= 1: the gate is wide open and callers may skip
  // sampling-only branches entirely (keeps rate-1.0 byte-identical to
  // the pre-sampling profiler).
  bool always_on() const { return threshold_ == kAlwaysOn; }

  // One per-transaction coin flip; this is the only cost an unsampled
  // transaction pays.
  bool Decide();

  uint64_t decisions() const { return decisions_; }

 private:
  static constexpr uint64_t kAlwaysOn = ~0ULL;

  SamplingConfig config_;
  uint64_t threshold_ = kAlwaysOn;
  uint64_t decisions_ = 0;
  obs::Counter* obs_total_;
  obs::Counter* obs_sampled_;
};

}  // namespace whodunit::profiler

#endif  // SRC_PROFILER_SAMPLING_H_
