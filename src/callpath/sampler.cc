#include "src/callpath/sampler.h"

namespace whodunit::callpath {

Sampler::Sampler(sim::SimTime period)
    : period_(period),
      obs_samples_taken_(&obs::Registry().GetCounter("sampler.samples_taken")),
      obs_samples_dropped_(&obs::Registry().GetCounter("sampler.samples_dropped_detached")),
      obs_stack_depth_(&obs::Registry().GetHistogram("sampler.shadow_stack_depth")) {}

void Sampler::OnCpu(ShadowStack& stack, sim::SimTime cost) {
  if (cost <= 0) {
    return;
  }
  CallingContextTree* cct = stack.cct();
  if (cct == nullptr) {
    // Detached: stage not being profiled. The samples a periodic timer
    // would have delivered over this charge are dropped.
    obs_samples_dropped_->Add(static_cast<uint64_t>(cost / period_));
    return;
  }
  residue_ += cost;
  const uint64_t fired = static_cast<uint64_t>(residue_ / period_);
  residue_ -= static_cast<sim::SimTime>(fired) * period_;
  cct->Add(stack.path_id(), PathCounters{.samples = fired, .cpu_time = cost});
  if (fired > 0) {
    samples_taken_ += fired;
    obs_samples_taken_->Add(fired);
    obs_stack_depth_->Observe(stack.depth());
  }
}

}  // namespace whodunit::callpath
