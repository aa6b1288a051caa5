// MiniVM interpreter with a translation cache and instruction hooks.
//
// Mirrors how Whodunit uses its QEMU-derived emulator (paper §7.2):
// critical-section code is *emulated*, with every data movement
// reported to an observer (the flow detector); everything else runs
// "directly". Translation happens once per program and is cached —
// Table 3's three cost regimes (direct execution, translation +
// emulation, emulation from cache) fall directly out of this design.
//
// The execute loop is a template over the observer's concrete type
// (ExecuteWith), so every hook call is bound statically — no vtable
// dispatch in the per-instruction path. Execute() is the hookless
// instantiation (the NoObserver tag compiles the hook code out
// entirely). Retire bookkeeping is batched: opcodes that deliver no
// hooks (jumps, nop, halt — see kDeliversHooks) accumulate a pending
// count that is flushed as one OnRetireBatch call before the next
// hook-delivering instruction.
#ifndef SRC_VM_INTERPRETER_H_
#define SRC_VM_INTERPRETER_H_

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/robin_hood.h"
#include "src/vm/isa.h"
#include "src/vm/loc.h"
#include "src/vm/memory.h"

namespace whodunit::vm {

// Per-thread register file and flags.
struct CpuState {
  std::array<uint64_t, kNumRegs> regs{};
  int cmp = 0;  // sign of (lhs - rhs) from the last compare
};

namespace internal {
inline int Sign(int64_t v) { return v < 0 ? -1 : (v > 0 ? 1 : 0); }
}  // namespace internal

struct ExecResult {
  int64_t instructions = 0;
  // Guest cycles actually paid in the chosen mode. In kEmulate this
  // includes the one-time translation cost on a cache miss.
  int64_t guest_cycles = 0;
  // What the same run would have cost executed directly (for overhead
  // reporting).
  int64_t direct_cycles = 0;
  bool translated = false;  // true if this run paid translation
};

class Interpreter {
 public:
  enum class Mode {
    kDirect,   // native execution: no hooks, direct cost
    kEmulate,  // emulated execution: hooks delivered, emulation cost
  };

  // The hooks ExecuteWith delivers, as no-ops. As the observer type it
  // selects the hookless instantiation (all observer code compiles out;
  // pass observer = nullptr). Observers that handle only some hooks
  // derive from it for the rest.
  struct NoObserver {
    // A MOV-class data movement dst <- src.
    void OnMov(ThreadId, const Loc& /*dst*/, const Loc& /*src*/) {}
    // A non-MOV write: immediate store or arithmetic result.
    void OnWriteValue(ThreadId, const Loc& /*dst*/) {}
    // A write whose value is the source location's value plus a
    // constant (wrapping): INC/DEC/ADD-immediate. For flow purposes
    // this is a non-MOV write; the section-summary effect recorder
    // memoizes the delta symbolically (a shared counter's increment
    // replays without re-emulation even though the counter's value
    // differs every execution).
    void OnAffineWrite(ThreadId, const Loc& /*dst*/, const Loc& /*src*/,
                       uint64_t /*delta*/) {}
    // Any operand read (includes MOV sources and address bases).
    void OnRead(ThreadId, const Loc& /*src*/) {}
    // A compare against an immediate: cmp <- sign(value(lhs) - imm).
    // Delivered after the operand's OnRead, before the flags update.
    // Effect recorders use it to keep the flags *symbolic* in lhs — a
    // table read whose only post-section use is `CmpRI(row, 0)` replays
    // for any row value instead of pinning the payload.
    void OnCompare(ThreadId, const Loc& /*lhs*/, int64_t /*imm*/) {}
    // A compare of two locations: cmp <- sign(value(lhs) - value(rhs)).
    void OnCompareLocs(ThreadId, const Loc& /*lhs*/, const Loc& /*rhs*/) {}
    // A conditional jump consulted the flags (taken or not). This is
    // where a symbolic compare result must collapse to a concrete pin:
    // the recorded instruction trace embeds the branch direction.
    void OnBranch(ThreadId) {}
    void OnLock(ThreadId, uint64_t /*lock_id*/) {}
    void OnUnlock(ThreadId, uint64_t /*lock_id*/) {}
    // `n` consecutive instructions retired with no intervening hook
    // deliveries (one call per hookless stretch of control flow, nops).
    void OnRetireBatch(ThreadId, int64_t /*n*/) {}
  };

  // Runs `program` to completion (Halt or falling off the end) on the
  // given thread's register state over `mem`, delivering no hooks.
  // Aborts after max_steps instructions as a runaway-loop guard.
  ExecResult Execute(const Program& program, ThreadId thread, CpuState& cpu, Memory& mem,
                     Mode mode = Mode::kEmulate, int64_t max_steps = 1 << 20) {
    return ExecuteWith<NoObserver>(program, thread, cpu, mem, nullptr, mode, max_steps);
  }

  // Execute, delivering every hook of an emulated run to `observer`
  // (statically bound to Obs; kDirect runs deliver none).
  template <typename Obs>
  ExecResult ExecuteWith(const Program& program, ThreadId thread, CpuState& cpu, Memory& mem,
                         Obs* observer, Mode mode = Mode::kEmulate,
                         int64_t max_steps = 1 << 20);

  // Drops all cached translations (as if the code cache were flushed).
  void FlushTranslationCache() { translated_.Clear(); }
  bool IsTranslated(uint64_t program_id) const { return translated_.Contains(program_id); }
  size_t translation_cache_size() const { return translated_.size(); }

  uint64_t translations_performed() const { return translations_performed_; }

  ~Interpreter() { FlushObsTallies(); }

  // Publishes batched per-Execute counts (translation-cache hits,
  // instructions emulated/direct) to the metrics registry. Called
  // automatically every kObsFlushExecutes executions and at
  // destruction; explicit calls are only needed when exact counts must
  // be visible mid-lifetime.
  void FlushObsTallies() {
    if (tally_cache_hits_ != 0) {
      obs_cache_hits_->Add(tally_cache_hits_);
      tally_cache_hits_ = 0;
    }
    if (tally_emulated_ != 0) {
      obs_emulated_->Add(tally_emulated_);
      tally_emulated_ = 0;
    }
    if (tally_direct_ != 0) {
      obs_direct_->Add(tally_direct_);
      tally_direct_ = 0;
    }
    obs_flush_countdown_ = kObsFlushExecutes;
  }

 private:
  // Executions between metric publications. Per-Execute sharded-atomic
  // updates were a measurable fraction of the short-critical-section
  // emulation cost; counts are staged in plain members instead and
  // published in batches (bounded staleness, exact totals).
  static constexpr uint32_t kObsFlushExecutes = 256;

  // Used as a set: presence of the program id means "translated".
  util::RobinHoodMap<uint64_t, uint8_t> translated_;
  uint64_t translations_performed_ = 0;
  uint64_t tally_cache_hits_ = 0;
  uint64_t tally_emulated_ = 0;
  uint64_t tally_direct_ = 0;
  uint32_t obs_flush_countdown_ = kObsFlushExecutes;

  // Self-observability handles, resolved once (see docs/METRICS.md).
  obs::Counter* obs_translations_ = &obs::Registry().GetCounter("vm.translations");
  obs::Counter* obs_cache_hits_ = &obs::Registry().GetCounter("vm.translation_cache_hits");
  obs::Counter* obs_emulated_ = &obs::Registry().GetCounter("vm.instructions_emulated");
  obs::Counter* obs_direct_ = &obs::Registry().GetCounter("vm.instructions_direct");
};

template <typename Obs>
ExecResult Interpreter::ExecuteWith(const Program& program, ThreadId thread, CpuState& cpu,
                                    Memory& mem, Obs* observer, Mode mode,
                                    int64_t max_steps) {
  constexpr bool kObserved = !std::is_same_v<Obs, NoObserver>;
  ExecResult result;

  const bool emulate = (mode == Mode::kEmulate);
  if (emulate) {
    // One translation-cache probe per Execute, hoisted out of the
    // instruction loop (translation state cannot change mid-run).
    if (translated_.Contains(program.id)) {
      ++tally_cache_hits_;
    } else {
      // Translation pass: in the real system this decodes guest code
      // and emits a translated block; here the per-instruction cost
      // model stands in for that work. Paid once per program until the
      // cache is flushed.
      for (const Instruction& ins : program.code) {
        result.guest_cycles += TranslateCycles(ins.op);
      }
      translated_.Upsert(program.id, 1);
      ++translations_performed_;
      obs_translations_->Add();
      result.translated = true;
    }
  }

  // With Obs = NoObserver this is statically false and every hook
  // block below is dead code.
  const bool hooks = kObserved && emulate && observer != nullptr;
  // Cycle-cost table for the chosen mode, selected once.
  const int64_t* const cost = emulate ? kEmulateCycles : kDirectCycles;

  // Retires accumulated since the last hook delivery; flushed as one
  // batch before the next hook-delivering instruction so the observer
  // sees retire counts at exactly the points where they can matter.
  int64_t pending_retires = 0;
  const auto flush_retires = [&] {
    if (pending_retires > 0) {
      observer->OnRetireBatch(thread, pending_retires);
      pending_retires = 0;
    }
  };

  const auto ea = [&cpu](const MemRef& m) -> Addr {
    return cpu.regs[m.base] + static_cast<uint64_t>(m.disp);
  };
  const auto read_base = [&](const MemRef& m) {
    if (hooks) {
      observer->OnRead(thread, Loc::Reg(thread, m.base));
    }
  };

  int64_t pc = 0;
  const auto code_size = static_cast<int64_t>(program.code.size());
  while (pc >= 0 && pc < code_size) {
    if (result.instructions >= max_steps) {
      // Runaway-loop guard: bounded termination is the contract
      // (tests/callpath_paths_test.cc), not a can't-happen condition.
      break;
    }
    const Instruction& ins = program.code[pc];
    ++result.instructions;
    const int oi = static_cast<int>(ins.op);
    result.direct_cycles += kDirectCycles[oi];
    result.guest_cycles += cost[oi];
    int64_t next_pc = pc + 1;

    if (hooks && kDeliversHooks[oi]) {
      flush_retires();
    }

    switch (ins.op) {
      case Opcode::kMovRR:
        if (hooks) {
          observer->OnRead(thread, Loc::Reg(thread, ins.r2));
          observer->OnMov(thread, Loc::Reg(thread, ins.r1), Loc::Reg(thread, ins.r2));
        }
        cpu.regs[ins.r1] = cpu.regs[ins.r2];
        break;
      case Opcode::kMovRI:
        if (hooks) {
          observer->OnWriteValue(thread, Loc::Reg(thread, ins.r1));
        }
        cpu.regs[ins.r1] = static_cast<uint64_t>(ins.imm);
        break;
      case Opcode::kMovRM: {
        const Addr a = ea(ins.m1);
        if (hooks) {
          read_base(ins.m1);
          observer->OnRead(thread, Loc::Mem(a));
          observer->OnMov(thread, Loc::Reg(thread, ins.r1), Loc::Mem(a));
        }
        cpu.regs[ins.r1] = mem.Read(a);
        break;
      }
      case Opcode::kMovMR: {
        const Addr a = ea(ins.m1);
        if (hooks) {
          read_base(ins.m1);
          observer->OnRead(thread, Loc::Reg(thread, ins.r1));
          observer->OnMov(thread, Loc::Mem(a), Loc::Reg(thread, ins.r1));
        }
        mem.Write(a, cpu.regs[ins.r1]);
        break;
      }
      case Opcode::kMovMI: {
        const Addr a = ea(ins.m1);
        if (hooks) {
          read_base(ins.m1);
          observer->OnWriteValue(thread, Loc::Mem(a));
        }
        mem.Write(a, static_cast<uint64_t>(ins.imm));
        break;
      }
      case Opcode::kMovMM: {
        const Addr src = ea(ins.m2);
        const Addr dst = ea(ins.m1);
        if (hooks) {
          read_base(ins.m2);
          read_base(ins.m1);
          observer->OnRead(thread, Loc::Mem(src));
          observer->OnMov(thread, Loc::Mem(dst), Loc::Mem(src));
        }
        mem.Write(dst, mem.Read(src));
        break;
      }
      case Opcode::kAddRR:
        if (hooks) {
          observer->OnRead(thread, Loc::Reg(thread, ins.r1));
          observer->OnRead(thread, Loc::Reg(thread, ins.r2));
          observer->OnWriteValue(thread, Loc::Reg(thread, ins.r1));
        }
        cpu.regs[ins.r1] += cpu.regs[ins.r2];
        break;
      case Opcode::kAddRI:
      case Opcode::kSubRI: {
        // dst = dst + delta with a constant delta: delivered as an
        // affine write so effect recorders can keep the chain symbolic.
        const uint64_t delta = ins.op == Opcode::kAddRI
                                   ? static_cast<uint64_t>(ins.imm)
                                   : 0 - static_cast<uint64_t>(ins.imm);
        if (hooks) {
          observer->OnRead(thread, Loc::Reg(thread, ins.r1));
          observer->OnAffineWrite(thread, Loc::Reg(thread, ins.r1),
                                  Loc::Reg(thread, ins.r1), delta);
        }
        cpu.regs[ins.r1] += delta;
        break;
      }
      case Opcode::kMulRI: {
        if (hooks) {
          observer->OnRead(thread, Loc::Reg(thread, ins.r1));
          observer->OnWriteValue(thread, Loc::Reg(thread, ins.r1));
        }
        cpu.regs[ins.r1] *= static_cast<uint64_t>(ins.imm);
        break;
      }
      case Opcode::kIncM:
      case Opcode::kDecM:
      case Opcode::kAddMI: {
        const Addr a = ea(ins.m1);
        const uint64_t delta = ins.op == Opcode::kIncM    ? uint64_t{1}
                               : ins.op == Opcode::kDecM ? ~uint64_t{0}
                                                         : static_cast<uint64_t>(ins.imm);
        if (hooks) {
          read_base(ins.m1);
          observer->OnRead(thread, Loc::Mem(a));
          observer->OnAffineWrite(thread, Loc::Mem(a), Loc::Mem(a), delta);
        }
        mem.Write(a, mem.Read(a) + delta);
        break;
      }
      case Opcode::kCmpRI:
        if (hooks) {
          observer->OnRead(thread, Loc::Reg(thread, ins.r1));
          observer->OnCompare(thread, Loc::Reg(thread, ins.r1), ins.imm);
        }
        cpu.cmp = internal::Sign(static_cast<int64_t>(cpu.regs[ins.r1]) - ins.imm);
        break;
      case Opcode::kCmpRR:
        if (hooks) {
          observer->OnRead(thread, Loc::Reg(thread, ins.r1));
          observer->OnRead(thread, Loc::Reg(thread, ins.r2));
          observer->OnCompareLocs(thread, Loc::Reg(thread, ins.r1),
                                  Loc::Reg(thread, ins.r2));
        }
        cpu.cmp = internal::Sign(static_cast<int64_t>(cpu.regs[ins.r1]) -
                                 static_cast<int64_t>(cpu.regs[ins.r2]));
        break;
      case Opcode::kCmpMI: {
        const Addr a = ea(ins.m1);
        if (hooks) {
          read_base(ins.m1);
          observer->OnRead(thread, Loc::Mem(a));
          observer->OnCompare(thread, Loc::Mem(a), ins.imm);
        }
        cpu.cmp = internal::Sign(static_cast<int64_t>(mem.Read(a)) - ins.imm);
        break;
      }
      case Opcode::kJmp:
        next_pc = ins.target;
        break;
      case Opcode::kJe:
        if (hooks) {
          observer->OnBranch(thread);
        }
        if (cpu.cmp == 0) {
          next_pc = ins.target;
        }
        break;
      case Opcode::kJne:
        if (hooks) {
          observer->OnBranch(thread);
        }
        if (cpu.cmp != 0) {
          next_pc = ins.target;
        }
        break;
      case Opcode::kJl:
        if (hooks) {
          observer->OnBranch(thread);
        }
        if (cpu.cmp < 0) {
          next_pc = ins.target;
        }
        break;
      case Opcode::kJge:
        if (hooks) {
          observer->OnBranch(thread);
        }
        if (cpu.cmp >= 0) {
          next_pc = ins.target;
        }
        break;
      case Opcode::kLock:
        if (hooks) {
          observer->OnLock(thread, static_cast<uint64_t>(ins.imm));
        }
        break;
      case Opcode::kUnlock:
        if (hooks) {
          observer->OnUnlock(thread, static_cast<uint64_t>(ins.imm));
        }
        break;
      case Opcode::kNop:
        break;
      case Opcode::kHalt:
        next_pc = code_size;
        break;
    }

    if (hooks) {
      ++pending_retires;
    }
    pc = next_pc;
  }
  if (hooks) {
    flush_retires();
  }

  // Aggregated once per Execute so the per-instruction loop stays
  // free of instrumentation; staged in plain members and published in
  // batches so short sections don't pay a sharded-atomic update each.
  (emulate ? tally_emulated_ : tally_direct_) += static_cast<uint64_t>(result.instructions);
  if (--obs_flush_countdown_ == 0) {
    FlushObsTallies();
  }
  return result;
}

// ---------------------------------------------------------------------------
// Architectural section effects (consumed by shm::SectionCache).
//
// A critical section's net effect on registers/memory/flags, recorded
// once during a cold emulated run and replayed on later executions.
// Values that only move (MOV chains) or shift by a constant (INC/DEC/
// ADD-immediate chains) stay *symbolic* — the replay re-reads them
// from the live pre-state — so a section hits the cache even when its
// payload differs run to run. Only values that feed addressing,
// compares, or general arithmetic are pinned concretely (`required`)
// and validated before a replay is allowed.

// One location the section read before writing it.
struct ArchInput {
  Loc loc;
  uint64_t value = 0;  // value observed on the cold run
  bool required = false;  // replay only valid if the live value matches
};

// One location the section left modified, collapsed to its final value.
struct ArchWrite {
  enum class Kind : uint8_t {
    kConcrete,  // final value is a constant of the recorded run
    kCopy,      // final value = live value of inputs[input]
    kAffine,    // final value = live value of inputs[input] + delta
  };
  Kind kind = Kind::kConcrete;
  Loc loc;
  int32_t input = -1;  // source input index for kCopy/kAffine
  uint64_t value = 0;  // kConcrete payload
  uint64_t delta = 0;  // kAffine payload (wrapping)
};

// Caps recordings; sections touching more state than this are declared
// uncacheable rather than truncated. Replay scratch buffers are sized
// to this, so inputs.size() <= kMaxArchEntries always holds.
inline constexpr size_t kMaxArchEntries = 256;

struct ArchEffects {
  // Provenance of the flags value the section leaves behind.
  //   kConcrete — replay writes final_cmp (a constant of the recorded
  //               run; deterministic given the pinned inputs).
  //   kInitial  — the section never wrote the flags; replay leaves the
  //               live cpu.cmp untouched.
  //   kSym      — the last compare's operand stayed symbolic; replay
  //               recomputes sign(live(inputs[final_cmp_input]) +
  //               final_cmp_delta - final_cmp_imm). This is what lets a
  //               table read whose only post-section use is
  //               `CmpRI(row, 0)` hit the cache for any row payload.
  enum class CmpKind : uint8_t { kConcrete, kInitial, kSym };

  std::vector<ArchInput> inputs;
  std::vector<ArchWrite> writes;
  int initial_cmp = 0;  // cpu.cmp fingerprint of the recorded run
  int final_cmp = 0;
  CmpKind final_cmp_kind = CmpKind::kConcrete;
  int32_t final_cmp_input = -1;   // kSym: input index of the operand
  uint64_t final_cmp_delta = 0;   // kSym: affine offset from that input
  int64_t final_cmp_imm = 0;      // kSym: compare immediate
  // True when a conditional branch consulted the flags before any
  // compare in the section: the recorded trace embeds that direction,
  // so replay must validate the live cpu.cmp against initial_cmp.
  bool pin_initial_cmp = false;
  bool cacheable = true;  // false: recording overflowed, do not summarize
};

// Observer that wraps an optional inner observer (forwarding every
// hook unchanged, statically bound to Inner) while building the
// ArchEffects of one section run.
//
// Classification protocol: every operand read lands in a pending list;
// the instruction's classifying hook (OnMov / OnAffineWrite) claims
// its data source as symbolic and promotes the leftovers (address
// bases) to required. OnWriteValue promotes everything pending
// (arithmetic operands), and instruction boundaries (OnRetireBatch,
// lock edges, Finish) sweep up reads with no classifying hook at all
// (compares). Hooks fire before the architectural write, so a value
// captured at first read is the true pre-section value.
template <typename Inner>
class EffectRecorder {
 public:
  static constexpr size_t kMaxEntries = kMaxArchEntries;

  EffectRecorder(ThreadId t, const CpuState& cpu, const Memory& mem, Inner* inner) {
    Reset(t, cpu, mem, inner);
  }

  // Pooling support: a default-constructed recorder is inert until
  // Reset. Reset clears field-by-field (not `fx_ = {}`), so pending_/
  // written_ keep their capacity across recordings — a cold record
  // then costs no allocations.
  EffectRecorder() = default;

  void Reset(ThreadId t, const CpuState& cpu, const Memory& mem, Inner* inner) {
    thread_ = t;
    cpu_ = &cpu;
    mem_ = &mem;
    inner_ = inner;
    fx_.inputs.clear();
    fx_.writes.clear();
    fx_.initial_cmp = cpu.cmp;
    fx_.final_cmp = 0;
    fx_.final_cmp_kind = ArchEffects::CmpKind::kConcrete;
    fx_.final_cmp_input = -1;
    fx_.final_cmp_delta = 0;
    fx_.final_cmp_imm = 0;
    fx_.pin_initial_cmp = false;
    fx_.cacheable = true;
    pending_.clear();
    written_.clear();
    cmp_state_ = CmpState::kInitial;
    cmp_input_ = -1;
    cmp_delta_ = 0;
    cmp_imm_ = 0;
    initial_cmp_read_ = false;
  }

  void OnMov(ThreadId t, const Loc& dst, const Loc& src) {
    if (inner_ != nullptr) {
      inner_->OnMov(t, dst, src);
    }
    const Taint st = SourceTaint(src, /*affine_delta=*/0, /*affine=*/false);
    ClaimPending(src);
    PromotePending();
    SetTaint(dst, st);
  }

  void OnWriteValue(ThreadId t, const Loc& dst) {
    if (inner_ != nullptr) {
      inner_->OnWriteValue(t, dst);
    }
    PromotePending();  // all pending reads fed real arithmetic
    SetTaint(dst, Taint{ArchWrite::Kind::kConcrete, -1, 0});
  }

  void OnAffineWrite(ThreadId t, const Loc& dst, const Loc& src, uint64_t delta) {
    if (inner_ != nullptr) {
      inner_->OnAffineWrite(t, dst, src, delta);
    }
    const Taint st = SourceTaint(src, delta, /*affine=*/true);
    ClaimPending(src);
    PromotePending();
    SetTaint(dst, st);
  }

  void OnRead(ThreadId t, const Loc& src) {
    if (inner_ != nullptr) {
      inner_->OnRead(t, src);
    }
    pending_.push_back(src);
  }

  // Compare against an immediate: the operand's provenance becomes the
  // flags' provenance. A symbolic operand (kCopy/kAffine of an input)
  // keeps the flags symbolic — no pin — unless a later OnBranch
  // consumes them.
  void OnCompare(ThreadId t, const Loc& lhs, int64_t imm) {
    if (inner_ != nullptr) {
      inner_->OnCompare(t, lhs, imm);
    }
    const Taint st = SourceTaint(lhs, /*affine_delta=*/0, /*affine=*/false);
    ClaimPending(lhs);
    PromotePending();
    if (st.kind == ArchWrite::Kind::kConcrete || st.input < 0) {
      // Deterministic given already-pinned inputs.
      cmp_state_ = CmpState::kConcrete;
    } else {
      cmp_state_ = CmpState::kSym;
      cmp_input_ = st.input;
      cmp_delta_ = st.kind == ArchWrite::Kind::kAffine ? st.delta : 0;
      cmp_imm_ = imm;
    }
  }

  // Two-location compares pin both operands (the difference of two
  // live values has no single-input symbolic form).
  void OnCompareLocs(ThreadId t, const Loc& lhs, const Loc& rhs) {
    if (inner_ != nullptr) {
      inner_->OnCompareLocs(t, lhs, rhs);
    }
    ClaimPending(lhs);
    ClaimPending(rhs);
    RequireLoc(lhs);
    RequireLoc(rhs);
    PromotePending();
    cmp_state_ = CmpState::kConcrete;
  }

  // A conditional branch consumed the flags: the recorded trace embeds
  // its direction, so a symbolic compare result collapses to a pin of
  // the operand's source *input index* (not its current loc — the loc
  // may have been overwritten since the compare).
  void OnBranch(ThreadId t) {
    if (inner_ != nullptr) {
      inner_->OnBranch(t);
    }
    if (cmp_state_ == CmpState::kSym) {
      fx_.inputs[static_cast<size_t>(cmp_input_)].required = true;
      cmp_state_ = CmpState::kConcrete;
    } else if (cmp_state_ == CmpState::kInitial) {
      initial_cmp_read_ = true;
    }
  }

  void OnLock(ThreadId t, uint64_t lock_id) {
    if (inner_ != nullptr) {
      inner_->OnLock(t, lock_id);
    }
    PromotePending();
  }

  void OnUnlock(ThreadId t, uint64_t lock_id) {
    if (inner_ != nullptr) {
      inner_->OnUnlock(t, lock_id);
    }
    PromotePending();
  }

  void OnRetireBatch(ThreadId t, int64_t n) {
    if (inner_ != nullptr) {
      inner_->OnRetireBatch(t, n);
    }
    PromotePending();
  }

  // Collapses the recording into replayable effects. Call after the
  // section's ExecuteWith returns (cpu/mem then hold the final state).
  ArchEffects Finish() {
    PromotePending();
    fx_.final_cmp = cpu_->cmp;
    fx_.pin_initial_cmp = initial_cmp_read_;
    switch (cmp_state_) {
      case CmpState::kInitial:
        fx_.final_cmp_kind = ArchEffects::CmpKind::kInitial;
        break;
      case CmpState::kSym:
        fx_.final_cmp_kind = ArchEffects::CmpKind::kSym;
        fx_.final_cmp_input = cmp_input_;
        fx_.final_cmp_delta = cmp_delta_;
        fx_.final_cmp_imm = cmp_imm_;
        break;
      case CmpState::kConcrete:
        fx_.final_cmp_kind = ArchEffects::CmpKind::kConcrete;
        break;
    }
    fx_.writes.reserve(written_.size());
    for (const WrittenLoc& w : written_) {
      ArchWrite aw;
      aw.kind = w.taint.kind;
      aw.loc = w.loc;
      aw.input = w.taint.input;
      aw.delta = w.taint.delta;
      if (aw.kind == ArchWrite::Kind::kConcrete) {
        aw.value = ValueOf(w.loc);
      }
      fx_.writes.push_back(aw);
    }
    CompactInputs();
    return std::move(fx_);
  }

 private:
  struct Taint {
    ArchWrite::Kind kind;
    int32_t input;   // kCopy/kAffine source
    uint64_t delta;  // kAffine offset from that input (wrapping)
  };
  struct WrittenLoc {
    Loc loc;
    Taint taint;
  };

  uint64_t ValueOf(const Loc& l) const {
    return l.kind == Loc::Kind::kReg ? cpu_->regs[l.addr] : mem_->Read(l.addr);
  }

  int FindWritten(const Loc& l) const {
    for (size_t i = 0; i < written_.size(); ++i) {
      if (written_[i].loc == l) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  // Registers `l` as a section input, capturing its (pre-section)
  // value. Only valid while `l` has not been written by the section.
  int FindOrAddInput(const Loc& l) {
    for (size_t i = 0; i < fx_.inputs.size(); ++i) {
      if (fx_.inputs[i].loc == l) {
        return static_cast<int>(i);
      }
    }
    if (fx_.inputs.size() >= kMaxEntries) {
      fx_.cacheable = false;
      return -1;
    }
    fx_.inputs.push_back(ArchInput{l, ValueOf(l), false});
    return static_cast<int>(fx_.inputs.size()) - 1;
  }

  // The live value of `l` was consumed concretely: pin the input it
  // derives from (if any) so the fingerprint validates it.
  void RequireLoc(const Loc& l) {
    const int wi = FindWritten(l);
    if (wi >= 0) {
      const Taint& t = written_[wi].taint;
      if (t.kind != ArchWrite::Kind::kConcrete && t.input >= 0) {
        fx_.inputs[t.input].required = true;
      }
      return;  // kConcrete: deterministic given already-pinned inputs
    }
    const int idx = FindOrAddInput(l);
    if (idx >= 0) {
      fx_.inputs[idx].required = true;
    }
  }

  // Provenance of a data movement's source, before the write lands.
  Taint SourceTaint(const Loc& src, uint64_t affine_delta, bool affine) {
    Taint t;
    const int wi = FindWritten(src);
    if (wi >= 0) {
      t = written_[wi].taint;
    } else {
      const int idx = FindOrAddInput(src);
      if (idx < 0) {
        return Taint{ArchWrite::Kind::kConcrete, -1, 0};  // overflowed
      }
      t = Taint{ArchWrite::Kind::kCopy, idx, 0};
    }
    if (affine && t.kind == ArchWrite::Kind::kCopy) {
      t = Taint{ArchWrite::Kind::kAffine, t.input, affine_delta};
    } else if (affine && t.kind == ArchWrite::Kind::kAffine) {
      t.delta += affine_delta;
    }
    return t;
  }

  void ClaimPending(const Loc& src) {
    for (size_t i = pending_.size(); i-- > 0;) {
      if (pending_[i] == src) {
        pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(i));
        return;
      }
    }
  }

  void PromotePending() {
    for (const Loc& l : pending_) {
      RequireLoc(l);
    }
    pending_.clear();
  }

  // Inputs that are neither pinned nor the source of a surviving
  // symbolic write (intermediate values a later write clobbered) are
  // dead weight on every replay — drop them and remap write indices.
  void CompactInputs() {
    std::vector<char> used(fx_.inputs.size(), 0);
    for (const ArchWrite& w : fx_.writes) {
      if (w.input >= 0) {
        used[static_cast<size_t>(w.input)] = 1;
      }
    }
    if (fx_.final_cmp_kind == ArchEffects::CmpKind::kSym && fx_.final_cmp_input >= 0) {
      used[static_cast<size_t>(fx_.final_cmp_input)] = 1;
    }
    std::vector<int32_t> remap(fx_.inputs.size(), -1);
    size_t kept = 0;
    for (size_t i = 0; i < fx_.inputs.size(); ++i) {
      if (fx_.inputs[i].required || used[i] != 0) {
        remap[i] = static_cast<int32_t>(kept);
        fx_.inputs[kept++] = fx_.inputs[i];
      }
    }
    fx_.inputs.resize(kept);
    for (ArchWrite& w : fx_.writes) {
      if (w.input >= 0) {
        w.input = remap[static_cast<size_t>(w.input)];
      }
    }
    if (fx_.final_cmp_kind == ArchEffects::CmpKind::kSym && fx_.final_cmp_input >= 0) {
      fx_.final_cmp_input = remap[static_cast<size_t>(fx_.final_cmp_input)];
    }
  }

  void SetTaint(const Loc& dst, const Taint& t) {
    const int wi = FindWritten(dst);
    if (wi >= 0) {
      written_[wi].taint = t;
      return;
    }
    if (written_.size() >= kMaxEntries) {
      fx_.cacheable = false;
      return;
    }
    written_.push_back(WrittenLoc{dst, t});
  }

  // Provenance of the current flags value, mirroring
  // ArchEffects::CmpKind but tracked live as compares/branches fire.
  enum class CmpState : uint8_t { kInitial, kConcrete, kSym };

  [[maybe_unused]] ThreadId thread_ = 0;
  const CpuState* cpu_ = nullptr;
  const Memory* mem_ = nullptr;
  Inner* inner_ = nullptr;
  ArchEffects fx_;
  std::vector<Loc> pending_;
  std::vector<WrittenLoc> written_;
  CmpState cmp_state_ = CmpState::kInitial;
  int32_t cmp_input_ = -1;
  uint64_t cmp_delta_ = 0;
  int64_t cmp_imm_ = 0;
  bool initial_cmp_read_ = false;
};

}  // namespace whodunit::vm

#endif  // SRC_VM_INTERPRETER_H_
