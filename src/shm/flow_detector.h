// Shared-memory transaction-flow detection (paper §3).
//
// The algorithm watches the instructions executed inside lock-protected
// critical sections (delivered by the MiniVM interpreter) and maintains
// a dictionary mapping locations (memory words and per-thread
// registers) to transaction contexts:
//
//   * A MOV whose source has an associated context propagates that
//     context (valid or invalid) to the destination.
//   * A MOV whose source has *no* context associates the destination
//     with the executing thread's current transaction context; if the
//     destination is shared memory, the thread has *produced* a value.
//   * Any non-MOV write (immediate store, arithmetic) associates the
//     destination with invlctxt, the invalid context — this is what
//     keeps shared counters and NULL sanity-checks from creating
//     spurious flows (§3.4, §3.3.2).
//   * After the outermost lock is released, emulation continues for up
//     to kDefaultPostWindow instructions; a read of a location holding
//     a valid context in that window means the thread *consumed* the
//     value, establishing a transaction flow from producer to consumer.
//
// Per-lock producer/consumer role lists demote resources where a
// thread appears on both sides (the memory-allocator pattern, §3.4):
// once demoted, the lock's critical sections no longer constitute
// transaction flow and may run natively (ShouldEmulate returns false).
//
// A location's dictionary entry remembers which lock protected the
// critical section that last set it; touching the location under a
// different lock flushes the stale context (§3.2, "used for different
// purposes at different times").
//
// Storage is organized for the per-instruction hot path: the §3.2
// location namespace is split at its natural seam — shared-memory
// words live in a flat open-addressing table keyed by address, while
// each thread's registers are a fixed array plus a validity bitmask
// (clearing all registers on critical-section entry is one mask
// reset). Role lists are small bitsets, so the demotion check is a
// word AND. The interpreter's templated execute loop binds the hook
// calls statically (vm::Interpreter::ExecuteWith<FlowDetector>).
#ifndef SRC_SHM_FLOW_DETECTOR_H_
#define SRC_SHM_FLOW_DETECTOR_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/obs/metrics.h"
#include "src/shm/section_summary.h"
#include "src/util/robin_hood.h"
#include "src/vm/interpreter.h"
#include "src/vm/loc.h"

namespace whodunit::shm {

// CtxtId / kInvalidCtxt live in section_summary.h (the summary data
// model shares them) and are re-exported through this include.

struct FlowEvent {
  vm::ThreadId producer;
  vm::ThreadId consumer;
  CtxtId ctxt;       // producer's transaction context at produce time
  uint64_t lock_id;  // lock protecting the resource the flow crossed
  vm::Loc loc;       // location the value was consumed from

  friend bool operator==(const FlowEvent& a, const FlowEvent& b) {
    return a.producer == b.producer && a.consumer == b.consumer && a.ctxt == b.ctxt &&
           a.lock_id == b.lock_id && a.loc == b.loc;
  }
};

// A set of thread ids: one machine word for ids below 64 (the common
// case by a wide margin — the simulator numbers threads densely from
// zero) with a spill vector for larger ids.
// Thread-role membership set. One inline word covers ids < 64 (the
// paper's mysqld runs a few dozen threads); larger ids land in a
// word-granular bitmap, keeping insert/contains O(1) and Intersects
// O(words) even when an open-loop scaling run parks tens of thousands
// of simulated worker threads on one lock. The previous linear
// overflow list made every insert-then-intersect pair quadratic in
// participants — at 1M clients the role bookkeeping, not the
// simulation, dominated wall time.
class ThreadSet {
 public:
  // Returns true if the thread was newly added.
  bool insert(vm::ThreadId t) {
    if (t < 64) {
      const uint64_t bit = uint64_t{1} << t;
      if ((bits_ & bit) != 0) {
        return false;
      }
      bits_ |= bit;
      return true;
    }
    const size_t w = (static_cast<size_t>(t) - 64) >> 6;
    const uint64_t bit = uint64_t{1} << ((static_cast<size_t>(t) - 64) & 63);
    if (w >= words_.size()) {
      words_.resize(w + 1, 0);
    }
    if ((words_[w] & bit) != 0) {
      return false;
    }
    words_[w] |= bit;
    ++overflow_count_;
    return true;
  }

  bool contains(vm::ThreadId t) const {
    if (t < 64) {
      return (bits_ & (uint64_t{1} << t)) != 0;
    }
    const size_t w = (static_cast<size_t>(t) - 64) >> 6;
    return w < words_.size() &&
           (words_[w] &
            (uint64_t{1} << ((static_cast<size_t>(t) - 64) & 63))) != 0;
  }

  bool empty() const { return bits_ == 0 && overflow_count_ == 0; }
  size_t size() const {
    return static_cast<size_t>(std::popcount(bits_)) + overflow_count_;
  }

  // Set equality. Equal counts plus an equal common prefix force any
  // extra trailing words in the longer bitmap to be all-zero padding.
  friend bool operator==(const ThreadSet& a, const ThreadSet& b) {
    if (a.bits_ != b.bits_ || a.overflow_count_ != b.overflow_count_) {
      return false;
    }
    const size_t n = std::min(a.words_.size(), b.words_.size());
    for (size_t i = 0; i < n; ++i) {
      if (a.words_[i] != b.words_[i]) {
        return false;
      }
    }
    return true;
  }

  // Non-empty intersection test: word-wise ANDs.
  bool Intersects(const ThreadSet& other) const {
    if ((bits_ & other.bits_) != 0) {
      return true;
    }
    const size_t n = std::min(words_.size(), other.words_.size());
    for (size_t i = 0; i < n; ++i) {
      if ((words_[i] & other.words_[i]) != 0) {
        return true;
      }
    }
    return false;
  }

 private:
  uint64_t bits_ = 0;
  size_t overflow_count_ = 0;
  std::vector<uint64_t> words_;  // bit (t - 64) set <=> id t present
};

class FlowDetector {
 public:
  struct Config {
    // MAX in the paper (§7.2): instructions emulated past the exit
    // from a critical section while watching for consumption.
    int post_window = kDefaultPostWindow;
  };
  static constexpr int kDefaultPostWindow = 128;

  // ctxt_provider returns a thread's current transaction context; the
  // detector calls it at produce points.
  using CtxtProvider = std::function<CtxtId(vm::ThreadId)>;
  using FlowCallback = std::function<void(const FlowEvent&)>;
  using DemoteCallback = std::function<void(uint64_t lock_id)>;

  FlowDetector(Config config, CtxtProvider ctxt_provider);
  explicit FlowDetector(CtxtProvider ctxt_provider)
      : FlowDetector(Config{}, std::move(ctxt_provider)) {}
  ~FlowDetector() { FlushObsTallies(); }
  FlowDetector(const FlowDetector&) = default;
  FlowDetector& operator=(const FlowDetector&) = default;

  void set_flow_callback(FlowCallback cb) { on_flow_ = std::move(cb); }
  void set_demote_callback(DemoteCallback cb) { on_demote_ = std::move(cb); }

  // Instruction hooks (the vm::Interpreter::ExecuteWith observer
  // interface). One body per hook: while a section recording is active
  // (rec_ != nullptr) each also reports its classification into it.
  void OnMov(vm::ThreadId t, const vm::Loc& dst, const vm::Loc& src);
  void OnWriteValue(vm::ThreadId t, const vm::Loc& dst);
  // Affine writes (INC/DEC/ADD-immediate) are non-MOV modifications:
  // same invlctxt poisoning as any arithmetic.
  void OnAffineWrite(vm::ThreadId t, const vm::Loc& dst, const vm::Loc& /*src*/,
                     uint64_t /*delta*/) {
    OnWriteValue(t, dst);
  }
  void OnRead(vm::ThreadId t, const vm::Loc& src);
  // Compares and branches move no data.
  void OnCompare(vm::ThreadId, const vm::Loc&, int64_t) {}
  void OnCompareLocs(vm::ThreadId, const vm::Loc&, const vm::Loc&) {}
  void OnBranch(vm::ThreadId) {}
  void OnLock(vm::ThreadId t, uint64_t lock_id);
  void OnUnlock(vm::ThreadId t, uint64_t lock_id);
  // Batched retire bookkeeping: the consume window only shrinks, and
  // only reads delivered *between* batches can consume, so decrementing
  // by the whole batch at once is exact.
  void OnRetireBatch(vm::ThreadId t, int64_t n);

  // Publishes the batched per-event counts (propagations, poisonings,
  // …) to the metrics registry. Hot hooks stage counts in plain
  // members — a sharded-atomic fetch_add per dictionary event was a
  // measurable slice of the per-section budget — and publish every
  // kObsFlushSections critical sections and at destruction. Totals
  // are exact; mid-lifetime snapshots lag by bounded staleness
  // (docs/METRICS.md). Flow/demotion counts and the flow log are
  // never batched.
  void FlushObsTallies();

  // False once the lock's resource was demoted (allocator pattern):
  // the performance optimization of §7.2 — run such critical sections
  // natively from then on.
  bool ShouldEmulate(uint64_t lock_id) const;
  bool IsDemoted(uint64_t lock_id) const;

  // Introspection for tests and reports.
  uint64_t flows_detected() const { return flows_detected_; }
  const std::vector<FlowEvent>& flow_log() const { return flow_log_; }
  size_t dictionary_size() const { return mem_dict_.size() + reg_entries_; }
  // Role lists are returned by value: a copy is two words in the dense
  // case, and the miss path safely yields an empty set instead of a
  // reference into mutable storage.
  ThreadSet producers_of(uint64_t lock_id) const;
  ThreadSet consumers_of(uint64_t lock_id) const;

  // --- Section-summary recording and replay (see section_summary.h) -

  // Dictionary input values captured while matching a fingerprint;
  // symbolic provenances resolve against these during ApplySection.
  struct ResolvedDictInputs {
    std::vector<CtxtId> ctxts;
    std::vector<vm::ThreadId> producers;
    bool has_current = false;
    CtxtId current = kInvalidCtxt;
  };

  // Recording is only sound from a clean section boundary: the thread
  // must not already hold a lock.
  bool CanRecordSection(vm::ThreadId t) const;
  // Installs `rec` as the recording sink for thread t's next section
  // run; every hook reports its classification and effects into it.
  void BeginSectionRecording(SectionRecording* rec, vm::ThreadId t);
  // Uninstalls the sink and collapses the recording.
  DictEffects EndSectionRecording();

  // True when the live dictionary/window state matches the summary's
  // fingerprint; fills `out` with the input entries' live contexts and
  // producers (and the thread's current context if the summary needs
  // it).
  bool MatchSection(const DictEffects& fx, vm::ThreadId t, ResolvedDictInputs* out) const;
  // Replays the summary: ordered ops (lock resets, window starts,
  // role updates, consumes with live dedup/demotion/flow emission),
  // then the collapsed per-location dictionary writes.
  void ApplySection(const DictEffects& fx, vm::ThreadId t, const ResolvedDictInputs& r);

  int post_window_config() const { return config_.post_window; }

  // Shadow-verify support: an independent copy whose callbacks (and
  // recording sink) are detached, and a deep structural comparison.
  FlowDetector CloneForShadow() const;
  bool DeepEquals(const FlowDetector& other) const;

 private:
  struct Entry {
    CtxtId ctxt = kInvalidCtxt;
    uint64_t lock_id = 0;       // lock of the CS that last set this entry
    vm::ThreadId producer = 0;  // thread whose context this value carries

    friend bool operator==(const Entry& a, const Entry& b) {
      return a.ctxt == b.ctxt && a.lock_id == b.lock_id && a.producer == b.producer;
    }
  };
  struct ThreadState {
    std::vector<uint64_t> lock_stack;  // held locks, outermost first
    int post_window_left = 0;
    // Flows already reported in the current consume window; a consumer
    // that picks up several words of one element (Apache's sd and p)
    // performed one logical flow, not one per word.
    std::vector<std::pair<uint64_t, CtxtId>> window_flows;
    // Register namespace: fixed slots, validity tracked in one mask so
    // clearing every register is a single store.
    std::array<Entry, vm::kNumRegs> regs{};
    uint32_t reg_valid = 0;
  };
  struct LockRoles {
    ThreadSet producers;
    ThreadSet consumers;
    bool demoted = false;
  };
  static_assert(vm::kNumRegs <= 32, "reg_valid mask is 32 bits");

  ThreadState& St(vm::ThreadId t) {
    if (t >= threads_.size()) {
      threads_.resize(static_cast<size_t>(t) + 1);
    }
    return threads_[t];
  }

  bool InCriticalSection(const ThreadState& ts) const { return !ts.lock_stack.empty(); }
  // The lock whose critical section governs analysis: the outermost
  // held lock (§3.3.2, nested locks).
  uint64_t OutermostLock(const ThreadState& ts) const { return ts.lock_stack.front(); }

  // Dictionary access, dispatching on the location's namespace.
  const Entry* FindEntry(const vm::Loc& loc);
  const Entry* FindEntryConst(const vm::Loc& loc) const;
  void SetEntry(const vm::Loc& loc, const Entry& entry);
  bool EraseEntry(const vm::Loc& loc);

  CtxtId ResolveCtxt(const CtxtProv& p, const ResolvedDictInputs& r) const {
    switch (p.kind) {
      case CtxtProv::Kind::kCurrent:
        return r.current;
      case CtxtProv::Kind::kInput:
        return r.ctxts[static_cast<size_t>(p.input)];
      case CtxtProv::Kind::kConcrete:
        break;
    }
    return p.value;
  }
  vm::ThreadId ResolveProducer(const ProducerProv& p, const ResolvedDictInputs& r) const {
    return p.kind == ProducerProv::Kind::kInput ? r.producers[static_cast<size_t>(p.input)]
                                                : p.value;
  }

  // Flushes loc's entry if it was set under a different lock.
  void FlushIfForeign(const vm::Loc& loc, uint64_t lock_id);
  void ClearThreadRegisters(vm::ThreadId t);
  void RecordProducer(uint64_t lock_id, vm::ThreadId t);
  void RecordConsumer(uint64_t lock_id, vm::ThreadId t);
  // Called right after `t` was newly inserted into one role list;
  // `other_role` is the opposite list. A fresh insert is the only way
  // the intersection can become non-empty, so one O(1) contains()
  // maintains the full-intersection invariant that used to cost an
  // Intersects() scan per insert.
  void MaybeDemote(uint64_t lock_id, LockRoles& roles,
                   const ThreadSet& other_role, vm::ThreadId t);

  // Role-list lookup with a one-entry cache. Valid while roles_ has
  // not inserted since the pointer was taken: roles_ never erases, so
  // an unchanged size() proves no insert (and no robin-hood
  // displacement) happened. The cache resets on copy — a cloned
  // detector's pointer would dangle into the original's table.
  LockRoles& RolesOf(uint64_t lock_id) {
    if (roles_cache_.ptr != nullptr && roles_cache_.lock == lock_id &&
        roles_cache_.gen == roles_.size()) {
      return *roles_cache_.ptr;
    }
    LockRoles& r = roles_.GetOrInsert(lock_id);
    roles_cache_ = RolesCache{lock_id, roles_.size(), &r};
    return r;
  }

  struct RolesCache {
    uint64_t lock = 0;
    size_t gen = 0;
    LockRoles* ptr = nullptr;
    RolesCache() = default;
    RolesCache(uint64_t l, size_t g, LockRoles* p) : lock(l), gen(g), ptr(p) {}
    // Reset on copy: a pointer into another detector's table is stale.
    RolesCache(const RolesCache&) {}
    RolesCache& operator=(const RolesCache&) {
      lock = 0;
      gen = 0;
      ptr = nullptr;
      return *this;
    }
  };

  // Batched counter deltas (see FlushObsTallies). Reset on copy so a
  // shadow clone starts from zero instead of double-publishing the
  // source's pending counts.
  struct ObsTallies {
    uint64_t critical_sections = 0;
    uint64_t propagations = 0;
    uint64_t associations = 0;
    uint64_t poisonings = 0;
    uint64_t flushes = 0;
    uint64_t window_dedups = 0;
    ObsTallies() = default;
    ObsTallies(const ObsTallies&) {}
    ObsTallies& operator=(const ObsTallies&) {
      critical_sections = propagations = associations = 0;
      poisonings = flushes = window_dedups = 0;
      return *this;
    }
  };

  // Critical sections between metric publications.
  static constexpr uint32_t kObsFlushSections = 64;

  Config config_;
  CtxtProvider ctxt_provider_;
  FlowCallback on_flow_;
  DemoteCallback on_demote_;

  // Active recording sink (null outside a recorded cold run). Each
  // hook pays one predictable-not-taken branch on it.
  SectionRecording* rec_ = nullptr;
  vm::ThreadId rec_thread_ = 0;

  // Memory namespace of the location dictionary; registers live in
  // each ThreadState.
  util::RobinHoodMap<vm::Addr, Entry> mem_dict_;
  size_t reg_entries_ = 0;  // total set bits across all reg_valid masks
  std::vector<ThreadState> threads_;
  util::RobinHoodMap<uint64_t, LockRoles> roles_;

  uint64_t flows_detected_ = 0;
  std::vector<FlowEvent> flow_log_;

  RolesCache roles_cache_;
  ObsTallies tally_;
  uint32_t sections_until_flush_ = kObsFlushSections;

  // Self-observability handles, resolved once (see docs/METRICS.md).
  obs::Counter* obs_critical_sections_;
  obs::Counter* obs_propagations_;
  obs::Counter* obs_associations_;
  obs::Counter* obs_poisonings_;
  obs::Counter* obs_flushes_;
  obs::Counter* obs_flows_;
  obs::Counter* obs_demotions_;
  obs::Counter* obs_window_dedups_;
  obs::Gauge* obs_dict_size_;
};

// --- Inline definitions ----------------------------------------------

inline void FlowDetector::FlushObsTallies() {
  if (tally_.critical_sections != 0) {
    obs_critical_sections_->Add(tally_.critical_sections);
    tally_.critical_sections = 0;
  }
  if (tally_.propagations != 0) {
    obs_propagations_->Add(tally_.propagations);
    tally_.propagations = 0;
  }
  if (tally_.associations != 0) {
    obs_associations_->Add(tally_.associations);
    tally_.associations = 0;
  }
  if (tally_.poisonings != 0) {
    obs_poisonings_->Add(tally_.poisonings);
    tally_.poisonings = 0;
  }
  if (tally_.flushes != 0) {
    obs_flushes_->Add(tally_.flushes);
    tally_.flushes = 0;
  }
  if (tally_.window_dedups != 0) {
    obs_window_dedups_->Add(tally_.window_dedups);
    tally_.window_dedups = 0;
  }
  sections_until_flush_ = kObsFlushSections;
}

inline void FlowDetector::OnRetireBatch(vm::ThreadId t, int64_t n) {
  // No recording note: window decrements are deterministic given the
  // trace, and every branch that *reads* the inherited window (a read
  // outside a critical section) pins it via NoteOutsideWindowUse.
  ThreadState& ts = St(t);
  if (ts.lock_stack.empty() && ts.post_window_left > 0) {
    ts.post_window_left -= static_cast<int>(std::min<int64_t>(n, ts.post_window_left));
  }
}

}  // namespace whodunit::shm

#endif  // SRC_SHM_FLOW_DETECTOR_H_
