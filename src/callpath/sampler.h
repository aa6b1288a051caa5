// Statistical sampling in virtual time (the csprof core, paper §7.1).
//
// csprof samples the program at a fixed frequency (the paper uses
// gprof's default, 666 Hz). In the simulator, CPU consumption arrives
// as discrete charges (cost of a piece of simulated work); the sampler
// converts those charges into the samples a periodic timer would have
// delivered, attributing them to the call path executing at charge time.
#ifndef SRC_CALLPATH_SAMPLER_H_
#define SRC_CALLPATH_SAMPLER_H_

#include <cstdint>

#include "src/callpath/shadow_stack.h"
#include "src/obs/metrics.h"
#include "src/sim/time.h"

namespace whodunit::callpath {

class Sampler {
 public:
  // period: virtual ns between samples. The paper's 666 Hz is
  // 1501501 ns; see workload/calibration.h.
  explicit Sampler(sim::SimTime period);

  // Charges `cost` ns of CPU against the thread owning `stack`.
  // Whole elapsed sample periods produce samples at the stack's
  // current path in its attached CCT; CPU time is attributed exactly.
  void OnCpu(ShadowStack& stack, sim::SimTime cost);

  uint64_t samples_taken() const { return samples_taken_; }

 private:
  sim::SimTime period_;
  sim::SimTime residue_ = 0;
  uint64_t samples_taken_ = 0;

  // Self-observability handles, resolved once (see docs/METRICS.md).
  obs::Counter* obs_samples_taken_;
  obs::Counter* obs_samples_dropped_;
  obs::Histogram* obs_stack_depth_;
};

}  // namespace whodunit::callpath

#endif  // SRC_CALLPATH_SAMPLER_H_
