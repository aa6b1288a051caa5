// Flow-summary cache: memoized critical-section execution (§7.2).
//
// Whodunit's dominant cost is emulating critical sections that are
// short and executed over and over (queue push/pop, allocator paths —
// paper §3, Table 3). The first time a section runs, the cache records
// its *net effect* — architectural (vm::ArchEffects: the read-set
// fingerprint and the final register/memory/flag writes with MOV
// chains and final compares kept symbolic) and dictionary-side
// (shm::DictEffects: propagations, poisonings, consume ops, role
// updates with contexts kept symbolic) — in a ring keyed by
// (program id, executing thread). Subsequent executions whose
// fingerprints match replay the summary and bypass the MiniVM
// dispatch loop entirely.
//
// Invalidation is structural rather than epochal:
//   * guest-code change  — programs are immutable and get fresh ids
//     from the builder, so a rebuilt section simply misses;
//   * fingerprint mismatch — a pinned value or dictionary shape
//     differs; the cold run records a new variant into the
//     (program, thread) ring (`kMaxVariants`);
//   * demotion-state / window state — never stale by construction:
//     demotion checks, window dedup and flow emission re-execute live
//     during replay, and summaries whose behavior depended on the
//     inherited consume window pin it in their fingerprint;
//   * translation-cache flush — a summary only replays while the
//     interpreter still holds the translation (IsTranslated), so the
//     re-translation cost is paid by a real cold run.
//
// Replay must be exact, and runs are deterministic, so exact oracles
// check it: the lockstep differentials in tests/shm_fuzz_test.cc and
// tests/shm_section_cache_test.cc compare a cached universe with plain
// emulation after every section, and the paper goldens
// (tests/paper_goldens.sh) pin whole-run outputs byte for byte, in
// every build preset including asan-ubsan.
#ifndef SRC_SHM_SECTION_CACHE_H_
#define SRC_SHM_SECTION_CACHE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/shm/flow_detector.h"
#include "src/shm/section_summary.h"
#include "src/util/robin_hood.h"
#include "src/vm/interpreter.h"

namespace whodunit::shm {

class SectionCache {
 public:
  // Fingerprint variants retained per (program, thread) ring; a full
  // ring evicts the least recently replayed. Sections whose pinned
  // values walk a bounded set (a table section whose fingerprint pins
  // the row index, a queue fingerprinting its depth) get one variant
  // per distinct value, so a ring covers a 64-value working set for
  // each thread before anything is evicted.
  static constexpr size_t kMaxVariants = 64;

  // Churn guard: once a full ring has evicted this many summaries
  // while replaying fewer hits than evictions, that (program, thread)
  // ring is demoted to plain emulation for good. Recording costs
  // several times a plain run, so a section whose pinned values walk
  // an unbounded set (a monotonically growing depth) would otherwise
  // turn the cache into a steady-state slowdown.
  static constexpr uint32_t kChurnDemoteRecords = 32;

  SectionCache();

  // Executes `program` through the cache. Semantically identical to
  // interp.ExecuteWith(program, t, cpu, mem, det) — including the
  // returned simulated-cost accounting — but replays a stored summary
  // when one matches the live machine/dictionary state. `det` may be
  // null (architectural effects only).
  //
  // Defined inline so the steady-state scan + replay compiles into the
  // caller; everything past a fingerprint miss goes out-of-line.
  vm::ExecResult Run(vm::Interpreter& interp, const vm::Program& program, vm::ThreadId t,
                     vm::CpuState& cpu, vm::Memory& mem, FlowDetector* det) {
    ProgramEntry* pe = table_.Find(program.id);
    if (pe != nullptr && t < pe->rings.size() && interp.IsTranslated(program.id)) {
      ThreadRing& ring = pe->rings[t];
      std::vector<SectionSummary>& sums = ring.summaries;
      const bool want_dict = det != nullptr;
      for (size_t i = 0; i < sums.size(); ++i) {
        SectionSummary& s = sums[i];
        if (s.has_dict != want_dict) {
          continue;
        }
        if (!MatchArch(s.arch, cpu, mem)) {
          continue;
        }
        if (want_dict && !det->MatchSection(s.dict, t, &resolved_)) {
          continue;
        }
        ++hits_;
        ++ring.replay_hits;
        obs_hits_->Add();
        if (i != 0) {
          // Keep the ring in replay-recency order: repeated sections
          // match at the front, and eviction drops the back.
          std::swap(sums[0], s);
        }
        SectionSummary& m = sums[0];
        ApplyArch(m.arch, cpu, mem);
        if (want_dict) {
          det->ApplySection(m.dict, t, resolved_);
        }
        return m.base;
      }
      if (!sums.empty()) {
        obs_fingerprint_misses_->Add();
      }
    }
    return RunMiss(interp, program, t, cpu, mem, det);
  }

  // Drops all summaries for one program / for everything.
  void Invalidate(uint64_t program_id);
  void Clear();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  size_t sections() const { return table_.size(); }
  size_t variants() const { return variant_count_; }

 private:
  // Summaries recorded by one thread for one program, most recently
  // replayed first. Keying the ring per (program, thread) keeps one
  // thread's walking fingerprints (its own row indices, its own queue
  // slots) from evicting another thread's working set, and drops the
  // per-summary thread check from the hit scan.
  struct ThreadRing {
    std::vector<SectionSummary> summaries;
    // Replay/eviction tallies for the churn guard: a ring whose
    // evictions outpace its hits past kChurnDemoteRecords is paying
    // record cost on ~every run and gets demoted.
    uint64_t replay_hits = 0;
    uint32_t evictions = 0;
    bool demoted = false;
  };
  struct ProgramEntry {
    std::vector<ThreadRing> rings;  // dense, indexed by ThreadId
    // Set when a recording declared the program uncacheable (effect
    // overflow, mid-section context change, lock held at exit): skip
    // the recording overhead on later runs, for every thread.
    bool never_cache = false;
  };

  static vm::ExecResult Plain(vm::Interpreter& interp, const vm::Program& program,
                              vm::ThreadId t, vm::CpuState& cpu, vm::Memory& mem,
                              FlowDetector* det);

  // Single gather pass: reads every input's live value into arch_vals_
  // (ApplyArch reuses them — a section may overwrite its own inputs)
  // and fail-fasts on a pinned-value mismatch. Register pins are
  // checked first — they're free to read — while the memory inputs'
  // bucket lines stream in behind a prefetch sweep.
  bool MatchArch(const vm::ArchEffects& fx, const vm::CpuState& cpu, const vm::Memory& mem) {
    if (fx.pin_initial_cmp && cpu.cmp != fx.initial_cmp) {
      return false;
    }
    const size_t n = fx.inputs.size();
    for (size_t i = 0; i < n; ++i) {
      const vm::ArchInput& in = fx.inputs[i];
      if (in.loc.kind == vm::Loc::Kind::kReg) {
        const uint64_t live = cpu.regs[in.loc.addr];
        if (in.required && live != in.value) {
          return false;
        }
        arch_vals_[i] = live;
      } else {
        mem.Prefetch(in.loc.addr);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const vm::ArchInput& in = fx.inputs[i];
      if (in.loc.kind != vm::Loc::Kind::kReg) {
        const uint64_t live = mem.Read(in.loc.addr);
        if (in.required && live != in.value) {
          return false;
        }
        arch_vals_[i] = live;
      }
    }
    return true;
  }

  // Writes the recorded final state; only valid immediately after a
  // successful MatchArch (consumes arch_vals_).
  void ApplyArch(const vm::ArchEffects& fx, vm::CpuState& cpu, vm::Memory& mem) const {
    for (const vm::ArchWrite& w : fx.writes) {
      uint64_t v;
      switch (w.kind) {
        case vm::ArchWrite::Kind::kCopy:
          v = arch_vals_[w.input];
          break;
        case vm::ArchWrite::Kind::kAffine:
          v = arch_vals_[w.input] + w.delta;
          break;
        case vm::ArchWrite::Kind::kConcrete:
        default:
          v = w.value;
          break;
      }
      if (w.loc.kind == vm::Loc::Kind::kReg) {
        cpu.regs[w.loc.addr] = v;
      } else {
        mem.Write(w.loc.addr, v);
      }
    }
    switch (fx.final_cmp_kind) {
      case vm::ArchEffects::CmpKind::kInitial:
        break;  // flags never written: replay leaves them untouched
      case vm::ArchEffects::CmpKind::kSym:
        cpu.cmp = vm::internal::Sign(
            static_cast<int64_t>(arch_vals_[fx.final_cmp_input] + fx.final_cmp_delta) -
            fx.final_cmp_imm);
        break;
      case vm::ArchEffects::CmpKind::kConcrete:
      default:
        cpu.cmp = fx.final_cmp;
        break;
    }
  }

  vm::ExecResult RunMiss(vm::Interpreter& interp, const vm::Program& program, vm::ThreadId t,
                         vm::CpuState& cpu, vm::Memory& mem, FlowDetector* det);
  vm::ExecResult RecordCold(vm::Interpreter& interp, const vm::Program& program,
                            vm::ThreadId t, vm::CpuState& cpu, vm::Memory& mem,
                            FlowDetector* det);

  util::RobinHoodMap<uint64_t, ProgramEntry> table_;
  size_t variant_count_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  // Scratch reused across calls so the hit path never allocates once
  // capacities are warm. arch_vals_ is bounded by the recording cap.
  FlowDetector::ResolvedDictInputs resolved_;
  uint64_t arch_vals_[vm::kMaxArchEntries];
  // Pooled recording scratch: RecordCold reuses these so cold runs
  // stop paying a fresh allocation burst per recording.
  SectionRecording scratch_rec_;
  vm::EffectRecorder<FlowDetector> scratch_arch_;

  // Self-observability handles, resolved once (see docs/METRICS.md).
  obs::Counter* obs_hits_;
  obs::Counter* obs_misses_;
  obs::Counter* obs_fingerprint_misses_;
  obs::Counter* obs_records_;
  obs::Counter* obs_uncacheable_;
  obs::Counter* obs_churn_demotions_;
  obs::Counter* obs_invalidations_;
  obs::Gauge* obs_sections_;
  obs::Gauge* obs_variants_;
};

}  // namespace whodunit::shm

#endif  // SRC_SHM_SECTION_CACHE_H_
