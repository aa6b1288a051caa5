// Open-loop arrival processes for million-client workloads.
//
// The seed apps drive load closed-loop: one coroutine per simulated
// client thinks, sends, waits, repeats. That couples offered load to
// response time (a saturated server slows its own clients down) and
// costs a live coroutine per client, which caps the population at
// thousands. Production traffic is open-loop: requests arrive on their
// own clock whether or not earlier ones finished. This module supplies
// that clock.
//
// A population of N independent Poisson clients superposes into one
// Poisson process of rate N*lambda, so a single generator coroutine
// can stand in for ~10k logical clients (kClientsPerGenerator): it
// draws interarrival gaps from the aggregate process and injects one
// request per arrival. Memory is then proportional to in-flight
// requests (offered load x response time), not to the client
// population — which is what makes per-client memory flat from 1k to
// 1M clients (bench_scaling_clients).
//
// Determinism: each generator owns a util::Rng whose seed is the
// generator's draw, in spawn order, from one util::Rng seeded with
// seed ^ 0x9E3779B97F4A7C15 (the apps' gen_seeder). A shard's seed and
// generator count depend only on the shard split (never on thread
// count), so open-loop runs keep the shard-merge byte-identity
// contract. See docs/PRODUCTION.md for
// the operator-facing knobs.
#ifndef SRC_WORKLOAD_ARRIVALS_H_
#define SRC_WORKLOAD_ARRIVALS_H_

#include <cstdint>
#include <string>

#include "src/sim/time.h"
#include "src/util/rng.h"

namespace whodunit::workload {

enum class ArrivalKind {
  kClosed,   // legacy think-send-wait loop, one coroutine per client
  kPoisson,  // open loop, exponential interarrivals
  kBursty,   // open loop, 2-state MMPP (on/off modulated Poisson)
};

// Parses "closed" / "poisson" / "bursty" (the --arrivals CLI values).
// Returns false and leaves *out untouched on unknown input.
bool ParseArrivalKind(const std::string& s, ArrivalKind* out);
const char* ArrivalKindName(ArrivalKind kind);

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kClosed;

  // Aggregate offered load in transactions/second across the whole
  // client population. 0 = derive from the population: clients x
  // (1 / per-client mean think time), i.e. the rate the closed-loop
  // population would offer if it never had to wait.
  double offered_load_tps = 0.0;

  // Logical clients one generator coroutine stands in for.
  uint64_t clients_per_generator = 10000;

  // Bursty (MMPP) shape: the ON state offers burst_factor x the mean
  // rate; dwell times in each state are exponential with these means.
  // The OFF-state rate is solved so the long-run mean equals
  // offered_load_tps (clamped at >= 0).
  double burst_factor = 4.0;
  sim::SimTime burst_on_mean = sim::Seconds(2);
  sim::SimTime burst_off_mean = sim::Seconds(8);
};

// Returns the aggregate offered rate (txn/sec) for `clients` logical
// clients: cfg.offered_load_tps if set, else clients / think_mean.
double EffectiveOfferedTps(const ArrivalConfig& cfg, uint64_t clients,
                           sim::SimTime per_client_think_mean);

// One generator's arrival clock: a deterministic stream of
// interarrival gaps for an aggregate rate of `tps` transactions/sec.
//
// Poisson: exponential gaps with mean 1/tps.
// Bursty: a 2-state Markov-modulated Poisson process. The state
// (on/off) dwells exponentially; arrivals within a state are Poisson
// at that state's rate. A gap that crosses a state boundary is drawn
// piecewise, so the process is exact, not an approximation.
class ArrivalProcess {
 public:
  // `tps` must be > 0 for open-loop kinds.
  ArrivalProcess(const ArrivalConfig& cfg, double tps, uint64_t seed);

  // Virtual ns until the next arrival (>= 1).
  sim::SimTime NextInterarrival();

  uint64_t arrivals_drawn() const { return arrivals_drawn_; }

 private:
  double RateNow() const { return on_ ? rate_on_ : rate_off_; }

  util::Rng rng_;
  ArrivalKind kind_;
  double rate_on_ = 0.0;   // arrivals per virtual ns in the ON state
  double rate_off_ = 0.0;  // arrivals per virtual ns in the OFF state
  sim::SimTime on_mean_ = 0;
  sim::SimTime off_mean_ = 0;
  bool on_ = true;
  sim::SimTime state_left_ = 0;  // virtual ns until the state flips
  uint64_t arrivals_drawn_ = 0;
};

}  // namespace whodunit::workload

#endif  // SRC_WORKLOAD_ARRIVALS_H_
