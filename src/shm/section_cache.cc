#include "src/shm/section_cache.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

namespace whodunit::shm {

SectionCache::SectionCache(Config config)
    : config_(config),
      obs_hits_(&obs::Registry().GetCounter("shm.section_cache.hits")),
      obs_misses_(&obs::Registry().GetCounter("shm.section_cache.misses")),
      obs_fingerprint_misses_(
          &obs::Registry().GetCounter("shm.section_cache.fingerprint_misses")),
      obs_records_(&obs::Registry().GetCounter("shm.section_cache.records")),
      obs_uncacheable_(&obs::Registry().GetCounter("shm.section_cache.uncacheable")),
      obs_churn_demotions_(
          &obs::Registry().GetCounter("shm.section_cache.churn_demotions")),
      obs_invalidations_(&obs::Registry().GetCounter("shm.section_cache.invalidations")),
      obs_shadow_checks_(&obs::Registry().GetCounter("shm.section_cache.shadow_checks")),
      obs_sections_(&obs::Registry().GetGauge("shm.section_cache.sections")),
      obs_variants_(&obs::Registry().GetGauge("shm.section_cache.variants")) {}

vm::ExecResult SectionCache::Plain(vm::Interpreter& interp, const vm::Program& program,
                                   vm::ThreadId t, vm::CpuState& cpu, vm::Memory& mem,
                                   FlowDetector* det) {
  if (det != nullptr) {
    return interp.ExecuteWith(program, t, cpu, mem, det);
  }
  return interp.Execute(program, t, cpu, mem);
}

vm::ExecResult SectionCache::RunMiss(vm::Interpreter& interp, const vm::Program& program,
                                     vm::ThreadId t, vm::CpuState& cpu, vm::Memory& mem,
                                     FlowDetector* det) {
  ++misses_;
  obs_misses_->Add();
  if (!interp.IsTranslated(program.id)) {
    // Pay the one-time translation in a plain cold run; recording
    // waits for the next (warm) execution so summaries never embed
    // translation cycles in their replayed cost.
    return Plain(interp, program, t, cpu, mem, det);
  }
  const ProgramEntry* pe = table_.Find(program.id);
  if (pe != nullptr &&
      (pe->never_cache || (t < pe->rings.size() && pe->rings[t].demoted))) {
    return Plain(interp, program, t, cpu, mem, det);
  }
  if (det != nullptr && !det->CanRecordSection(t)) {
    // Mid-section start (thread already holds a lock): transient —
    // skip recording this run only.
    return Plain(interp, program, t, cpu, mem, det);
  }
  return RecordCold(interp, program, t, cpu, mem, det);
}

vm::ExecResult SectionCache::RecordCold(vm::Interpreter& interp, const vm::Program& program,
                                        vm::ThreadId t, vm::CpuState& cpu, vm::Memory& mem,
                                        FlowDetector* det) {
  if (det != nullptr) {
    det->BeginSectionRecording(&scratch_rec_, t);
  }
  scratch_arch_.Reset(t, cpu, mem, det);
  const vm::ExecResult res = interp.ExecuteWith(program, t, cpu, mem, &scratch_arch_);
  vm::ArchEffects arch = scratch_arch_.Finish();
  DictEffects dict;
  if (det != nullptr) {
    dict = det->EndSectionRecording();
  }

  const bool cacheable = arch.cacheable && (det == nullptr || dict.cacheable);
  ProgramEntry& pe = table_.GetOrInsert(program.id);
  if (!cacheable) {
    pe.never_cache = true;
    obs_uncacheable_->Add();
    obs_sections_->Set(static_cast<int64_t>(table_.size()));
    return res;
  }
  if (t >= pe.rings.size()) {
    pe.rings.resize(static_cast<size_t>(t) + 1);
  }
  ThreadRing& ring = pe.rings[t];
  const bool full = ring.summaries.size() >= config_.max_variants;
  if (full) {
    ++ring.evictions;
    if (ring.evictions >= kChurnDemoteRecords && ring.replay_hits < ring.evictions) {
      // This thread's fingerprints walk an unbounded set (evictions
      // outpace replays even with a full ring), so the cache is a net
      // slowdown here: demote the ring to plain emulation for good.
      variant_count_ -= ring.summaries.size();
      obs_invalidations_->Add(static_cast<uint64_t>(ring.summaries.size()));
      ring.summaries.clear();
      ring.summaries.shrink_to_fit();
      ring.demoted = true;
      obs_churn_demotions_->Add();
      obs_sections_->Set(static_cast<int64_t>(table_.size()));
      obs_variants_->Set(static_cast<int64_t>(variant_count_));
      return res;
    }
  }
  SectionSummary s;
  s.thread = t;
  s.has_dict = det != nullptr;
  s.arch = std::move(arch);
  s.dict = std::move(dict);
  s.base = res;  // translation was paid on an earlier run; res excludes it
  if (full) {
    // Least recently replayed lives at the back (Run swaps hits to the
    // front); drop it to make room.
    ring.summaries.pop_back();
    obs_invalidations_->Add();
  } else {
    ++variant_count_;
  }
  ring.summaries.insert(ring.summaries.begin(), std::move(s));
  obs_records_->Add();
  obs_sections_->Set(static_cast<int64_t>(table_.size()));
  obs_variants_->Set(static_cast<int64_t>(variant_count_));
  return res;
}

vm::ExecResult SectionCache::ShadowVerifyHit(const SectionSummary& s, vm::Interpreter& interp,
                                             const vm::Program& program, vm::ThreadId t,
                                             vm::CpuState& cpu, vm::Memory& mem,
                                             FlowDetector* det) {
  obs_shadow_checks_->Add();
  // Replay into copies; the authoritative emulation below runs on the
  // real state, so a divergence can never corrupt the simulation.
  vm::CpuState shadow_cpu = cpu;
  vm::Memory shadow_mem = mem;
  ApplyArch(s.arch, shadow_cpu, shadow_mem);
  std::optional<FlowDetector> shadow_det;
  if (det != nullptr) {
    shadow_det.emplace(det->CloneForShadow());
    shadow_det->ApplySection(s.dict, t, resolved_);
  }
  const vm::ExecResult res = Plain(interp, program, t, cpu, mem, det);

  const char* divergence = nullptr;
  if (shadow_cpu.regs != cpu.regs || shadow_cpu.cmp != cpu.cmp) {
    divergence = "cpu state";
  } else if (shadow_mem.Snapshot() != mem.Snapshot()) {
    divergence = "memory";
  } else if (det != nullptr && !shadow_det->DeepEquals(*det)) {
    divergence = "flow dictionary";
  } else if (res.instructions != s.base.instructions ||
             res.guest_cycles != s.base.guest_cycles ||
             res.direct_cycles != s.base.direct_cycles || res.translated) {
    divergence = "exec result";
  }
  if (divergence != nullptr) {
    std::fprintf(stderr,
                 "shadow-verify: section cache replay diverged from full emulation\n"
                 "  program: %s (id %llu)  thread: %u  divergence: %s\n",
                 program.name.c_str(), static_cast<unsigned long long>(program.id), t,
                 divergence);
    std::abort();
  }
  return res;
}

void SectionCache::Invalidate(uint64_t program_id) {
  ProgramEntry* pe = table_.Find(program_id);
  if (pe == nullptr) {
    return;
  }
  size_t dropped = 0;
  for (const ThreadRing& ring : pe->rings) {
    dropped += ring.summaries.size();
  }
  variant_count_ -= dropped;
  obs_invalidations_->Add(static_cast<uint64_t>(dropped));
  table_.Erase(program_id);
  obs_sections_->Set(static_cast<int64_t>(table_.size()));
  obs_variants_->Set(static_cast<int64_t>(variant_count_));
}

void SectionCache::Clear() {
  obs_invalidations_->Add(static_cast<uint64_t>(variant_count_));
  table_.Clear();
  variant_count_ = 0;
  obs_sections_->Set(0);
  obs_variants_->Set(0);
}

}  // namespace whodunit::shm
