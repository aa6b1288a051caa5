#include "src/shm/flow_detector.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace whodunit::shm {

FlowDetector::FlowDetector(Config config, CtxtProvider ctxt_provider)
    : config_(config),
      ctxt_provider_(std::move(ctxt_provider)),
      obs_critical_sections_(&obs::Registry().GetCounter("shm.critical_sections")),
      obs_propagations_(&obs::Registry().GetCounter("shm.dict_propagations")),
      obs_associations_(&obs::Registry().GetCounter("shm.dict_associations")),
      obs_poisonings_(&obs::Registry().GetCounter("shm.invlctxt_poisonings")),
      obs_flushes_(&obs::Registry().GetCounter("shm.foreign_lock_flushes")),
      obs_flows_(&obs::Registry().GetCounter("shm.flows_detected")),
      obs_demotions_(&obs::Registry().GetCounter("shm.lock_demotions")),
      obs_window_dedups_(&obs::Registry().GetCounter("shm.consume_window_dedups")),
      obs_dict_size_(&obs::Registry().GetGauge("shm.dict_size")) {}

// --- Dictionary access -----------------------------------------------
//
// Declared inline so they inline into the hooks and into the replay
// path (MatchSection, ApplySection); every caller is in this file.

inline const FlowDetector::Entry* FlowDetector::FindEntry(const vm::Loc& loc) {
  if (loc.is_mem()) {
    return mem_dict_.Find(loc.addr);
  }
  ThreadState& ts = St(loc.thread);
  const auto r = static_cast<uint32_t>(loc.addr);
  return (ts.reg_valid >> r) & 1u ? &ts.regs[r] : nullptr;
}

inline const FlowDetector::Entry* FlowDetector::FindEntryConst(const vm::Loc& loc) const {
  if (loc.is_mem()) {
    return mem_dict_.Find(loc.addr);
  }
  if (loc.thread >= threads_.size()) {
    return nullptr;
  }
  const ThreadState& ts = threads_[loc.thread];
  const auto r = static_cast<uint32_t>(loc.addr);
  return (ts.reg_valid >> r) & 1u ? &ts.regs[r] : nullptr;
}

inline void FlowDetector::SetEntry(const vm::Loc& loc, const Entry& entry) {
  if (loc.is_mem()) {
    mem_dict_.Upsert(loc.addr, entry);
    return;
  }
  ThreadState& ts = St(loc.thread);
  const auto r = static_cast<uint32_t>(loc.addr);
  reg_entries_ += static_cast<size_t>(((ts.reg_valid >> r) & 1u) == 0);
  ts.reg_valid |= 1u << r;
  ts.regs[r] = entry;
}

inline bool FlowDetector::EraseEntry(const vm::Loc& loc) {
  if (loc.is_mem()) {
    return mem_dict_.Erase(loc.addr);
  }
  ThreadState& ts = St(loc.thread);
  const auto r = static_cast<uint32_t>(loc.addr);
  if (((ts.reg_valid >> r) & 1u) == 0) {
    return false;
  }
  ts.reg_valid &= ~(1u << r);
  --reg_entries_;
  return true;
}

inline void FlowDetector::ClearThreadRegisters(vm::ThreadId t) {
  ThreadState& ts = St(t);
  reg_entries_ -= std::popcount(ts.reg_valid);
  ts.reg_valid = 0;
}

void FlowDetector::FlushIfForeign(const vm::Loc& loc, uint64_t lock_id) {
  const Entry* e = FindEntry(loc);
  if (e != nullptr && e->lock_id != lock_id) {
    EraseEntry(loc);
    ++tally_.flushes;
    if (rec_ != nullptr) {
      rec_->NoteFlush(loc);
    }
  }
}

// --- Instruction hooks -----------------------------------------------
//
// Each hook applies one §3 rule and, while a section recording is
// active, reports its classification into rec_. Recording needs the
// pre-flush state of a MOV's source, so a MOV flushes and looks up in
// separate steps; ApplySection replays exactly these transitions.

void FlowDetector::OnLock(vm::ThreadId t, uint64_t lock_id) {
  ThreadState& ts = St(t);
  if (ts.lock_stack.empty()) {
    // Entering an outermost critical section: registers carry values
    // computed in un-emulated code, so they have no associated context
    // (§3.2, "live registers on entry"). A pending consume window is
    // over. With the bitmask register file this is one mask reset.
    ClearThreadRegisters(t);
    ts.post_window_left = 0;
    ++tally_.critical_sections;
    if (--sections_until_flush_ == 0) {
      FlushObsTallies();
    }
    if (rec_ != nullptr) {
      rec_->NoteLockReset(lock_id);
    }
  }
  ts.lock_stack.push_back(lock_id);
}

void FlowDetector::OnUnlock(vm::ThreadId t, uint64_t lock_id) {
  ThreadState& ts = St(t);
  // Release the matching lock wherever it sits in the stack: unlocks
  // are usually LIFO, but any order is legal.
  for (size_t i = ts.lock_stack.size(); i-- > 0;) {
    if (ts.lock_stack[i] == lock_id) {
      ts.lock_stack.erase(ts.lock_stack.begin() + static_cast<long>(i));
      break;
    }
  }
  if (ts.lock_stack.empty()) {
    // Keep emulating for MAX instructions watching for consumption.
    ts.post_window_left = config_.post_window;
    ts.window_flows.clear();
    obs_dict_size_->Set(static_cast<int64_t>(dictionary_size()));
    if (rec_ != nullptr) {
      rec_->NoteWindowStart();
    }
  }
}

void FlowDetector::OnMov(vm::ThreadId t, const vm::Loc& dst, const vm::Loc& src) {
  ThreadState& ts = St(t);
  if (!InCriticalSection(ts)) {
    // Outside any critical section the algorithm does not propagate;
    // a write still clobbers whatever context the destination held.
    if (rec_ != nullptr) {
      rec_->NoteOutsideErase(dst);
    }
    EraseEntry(dst);
    return;
  }
  const uint64_t lock_id = OutermostLock(ts);
  if (rec_ != nullptr) {
    // Fingerprint the source's raw pre-state before the foreign flush.
    const Entry* pre = FindEntry(src);
    rec_->NoteMovSrcAccess(src, pre != nullptr, pre != nullptr ? pre->ctxt : kInvalidCtxt,
                           pre != nullptr ? pre->lock_id : 0,
                           pre != nullptr ? pre->producer : 0, lock_id);
  }
  FlushIfForeign(src, lock_id);
  FlushIfForeign(dst, lock_id);

  if (const Entry* e = FindEntry(src)) {
    // Propagation: dst inherits src's context, valid or invalid,
    // along with the identity of the value's original producer.
    SetEntry(dst, Entry{e->ctxt, lock_id, e->producer});
    ++tally_.propagations;
    if (rec_ != nullptr) {
      rec_->NotePropagate(dst, src, lock_id);
    }
    return;
  }
  // Source has no context: the executing thread is contributing a
  // value it computed before entering the critical section. Associate
  // the thread's transaction context with the destination. Writing
  // such a value into *memory* is production of a resource.
  const CtxtId current = ctxt_provider_(t);
  SetEntry(dst, Entry{current, lock_id, t});
  ++tally_.associations;
  if (rec_ != nullptr) {
    rec_->NoteAssociate(dst, lock_id, current, dst.is_mem());
  }
  if (dst.is_mem()) {
    RecordProducer(lock_id, t);
  }
}

void FlowDetector::OnWriteValue(vm::ThreadId t, const vm::Loc& dst) {
  ThreadState& ts = St(t);
  if (!InCriticalSection(ts)) {
    if (rec_ != nullptr) {
      rec_->NoteOutsideErase(dst);
    }
    EraseEntry(dst);
    return;
  }
  // Non-MOV modification: immediate store, arithmetic result. The
  // location's value no longer carries any transaction's data.
  const uint64_t lock_id = OutermostLock(ts);
  SetEntry(dst, Entry{kInvalidCtxt, lock_id, t});
  ++tally_.poisonings;
  if (rec_ != nullptr) {
    rec_->NotePoison(dst, lock_id);
  }
}

void FlowDetector::OnRead(vm::ThreadId t, const vm::Loc& src) {
  ThreadState& ts = St(t);
  // Reads inside critical sections are handled by OnMov propagation;
  // reads past the consume window are un-emulated in the real system.
  if (InCriticalSection(ts)) {
    return;
  }
  if (rec_ != nullptr) {
    rec_->NoteOutsideWindowUse();
  }
  if (ts.post_window_left <= 0) {
    return;
  }
  const Entry* found = FindEntry(src);
  if (rec_ != nullptr) {
    rec_->NoteConsumeAccess(src, found != nullptr,
                            found != nullptr ? found->ctxt : kInvalidCtxt,
                            found != nullptr ? found->lock_id : 0,
                            found != nullptr ? found->producer : 0);
  }
  if (found == nullptr || found->ctxt == kInvalidCtxt) {
    return;
  }
  // Consumption: the thread used, after leaving the critical section,
  // a value that carries a transaction context.
  const Entry entry = *found;
  if (rec_ != nullptr) {
    rec_->NoteConsume(src, entry.lock_id, entry.producer);
  }
  EraseEntry(src);
  RecordConsumer(entry.lock_id, t);
  if (entry.producer != t && !IsDemoted(entry.lock_id)) {
    const auto key = std::make_pair(entry.lock_id, entry.ctxt);
    for (const auto& seen : ts.window_flows) {
      if (seen == key) {
        ++tally_.window_dedups;
        return;  // same logical flow, another word of the element
      }
    }
    ts.window_flows.push_back(key);
    ++flows_detected_;
    obs_flows_->Add();
    FlowEvent ev{entry.producer, t, entry.ctxt, entry.lock_id, src};
    flow_log_.push_back(ev);
    if (on_flow_) {
      on_flow_(ev);
    }
  }
}

// --- Role lists ------------------------------------------------------

void FlowDetector::RecordProducer(uint64_t lock_id, vm::ThreadId t) {
  LockRoles& roles = RolesOf(lock_id);
  if (roles.producers.insert(t)) {
    MaybeDemote(lock_id, roles, roles.consumers, t);
  }
}

void FlowDetector::RecordConsumer(uint64_t lock_id, vm::ThreadId t) {
  LockRoles& roles = RolesOf(lock_id);
  if (roles.consumers.insert(t)) {
    MaybeDemote(lock_id, roles, roles.producers, t);
  }
}

void FlowDetector::MaybeDemote(uint64_t lock_id, LockRoles& roles,
                               const ThreadSet& other_role, vm::ThreadId t) {
  if (roles.demoted) {
    return;
  }
  // A common member of the two lists => not transaction flow (the
  // memory-allocator pattern, §3.4). Only the thread just added to one
  // list can have created an overlap, so a single membership probe of
  // the other list maintains the intersection invariant.
  if (other_role.contains(t)) {
    roles.demoted = true;
    obs_demotions_->Add();
    if (on_demote_) {
      on_demote_(lock_id);
    }
  }
}

bool FlowDetector::ShouldEmulate(uint64_t lock_id) const { return !IsDemoted(lock_id); }

bool FlowDetector::IsDemoted(uint64_t lock_id) const {
  const LockRoles* roles = roles_.Find(lock_id);
  return roles != nullptr && roles->demoted;
}

ThreadSet FlowDetector::producers_of(uint64_t lock_id) const {
  const LockRoles* roles = roles_.Find(lock_id);
  return roles == nullptr ? ThreadSet{} : roles->producers;
}

ThreadSet FlowDetector::consumers_of(uint64_t lock_id) const {
  const LockRoles* roles = roles_.Find(lock_id);
  return roles == nullptr ? ThreadSet{} : roles->consumers;
}

// --- Section-summary recording and replay ---------------------------

bool FlowDetector::CanRecordSection(vm::ThreadId t) const {
  return t >= threads_.size() || threads_[t].lock_stack.empty();
}

void FlowDetector::BeginSectionRecording(SectionRecording* rec, vm::ThreadId t) {
  rec_ = rec;
  rec_thread_ = t;
  const ThreadState* ts = t < threads_.size() ? &threads_[t] : nullptr;
  rec->Begin(t, ts != nullptr ? ts->post_window_left : 0,
             ts != nullptr ? ts->window_flows : std::vector<std::pair<uint64_t, CtxtId>>{},
             config_.post_window);
}

DictEffects FlowDetector::EndSectionRecording() {
  SectionRecording* rec = rec_;
  rec_ = nullptr;
  const ThreadState* ts = rec_thread_ < threads_.size() ? &threads_[rec_thread_] : nullptr;
  const bool end_in_section = ts != nullptr && !ts->lock_stack.empty();
  return rec->Finish(ts != nullptr ? ts->post_window_left : 0, end_in_section);
}

bool FlowDetector::MatchSection(const DictEffects& fx, vm::ThreadId t,
                                ResolvedDictInputs* out) const {
  if (!fx.cacheable || fx.post_window_config != config_.post_window) {
    return false;
  }
  const ThreadState* ts = t < threads_.size() ? &threads_[t] : nullptr;
  if (ts != nullptr && !ts->lock_stack.empty()) {
    return false;
  }
  if (fx.pin_pre_window &&
      (ts != nullptr ? ts->post_window_left : 0) != fx.pre_post_window) {
    return false;
  }
  if (fx.pin_pre_window_flows) {
    if (ts != nullptr ? ts->window_flows != fx.pre_window_flows
                      : !fx.pre_window_flows.empty()) {
      return false;
    }
  }
  // Prefetch the memory-namespace buckets up front: the validation
  // loop then probes lines already in flight instead of serializing
  // one miss per input.
  for (const DictInput& in : fx.inputs) {
    if (in.loc.is_mem()) {
      mem_dict_.Prefetch(in.loc.addr);
    }
  }
  out->ctxts.assign(fx.inputs.size(), kInvalidCtxt);
  out->producers.assign(fx.inputs.size(), 0);
  for (size_t i = 0; i < fx.inputs.size(); ++i) {
    const DictInput& in = fx.inputs[i];
    const Entry* e = FindEntryConst(in.loc);
    switch (in.shape) {
      case DictInput::Shape::kAbsent:
        if (e != nullptr) {
          return false;
        }
        continue;
      case DictInput::Shape::kForeign:
        // Any entry under a different lock flushes identically.
        if (e == nullptr || e->lock_id == in.lock_id) {
          return false;
        }
        break;
      case DictInput::Shape::kPresent:
        if (e == nullptr || (e->ctxt == kInvalidCtxt) != in.invalid) {
          return false;
        }
        if (in.role == DictInput::Role::kMovSrc) {
          // lock_id is the section's lock: a foreign entry would have
          // been flushed and treated as absent.
          if (e->lock_id != in.lock_id ||
              (!in.invalid && (e->producer == t) != in.producer_self)) {
            return false;
          }
        } else if (!in.invalid &&
                   (e->lock_id != in.lock_id ||
                    (e->producer == t) != in.producer_self)) {
          // Consume role: the entry's own lock feeds RecordConsumer and
          // the demotion check; don't-care for invalid entries.
          return false;
        }
        break;
    }
    out->ctxts[i] = e->ctxt;
    out->producers[i] = e->producer;
  }
  if (fx.uses_current) {
    out->has_current = true;
    out->current = ctxt_provider_(t);
    // Consume branches distinguish valid from invalid contexts; the
    // replay's current context must be in the cold run's class.
    if ((out->current == kInvalidCtxt) != fx.current_was_invalid) {
      return false;
    }
  }
  return true;
}

void FlowDetector::ApplySection(const DictEffects& fx, vm::ThreadId t,
                                const ResolvedDictInputs& r) {
  ThreadState& ts = St(t);
  for (const DictOp& op : fx.ops) {
    switch (op.kind) {
      case DictOp::Kind::kLockReset:
        ClearThreadRegisters(t);
        ts.post_window_left = 0;
        ++tally_.critical_sections;
        if (--sections_until_flush_ == 0) {
          FlushObsTallies();
        }
        break;
      case DictOp::Kind::kWindowStart:
        ts.post_window_left = config_.post_window;
        ts.window_flows.clear();
        break;
      case DictOp::Kind::kProduce:
        RecordProducer(op.lock_id, t);
        break;
      case DictOp::Kind::kConsume: {
        RecordConsumer(op.lock_id, t);
        // Eligibility by producer identity was pinned by the
        // fingerprint; demotion and window dedup depend on live state
        // and symbolic context resolution, so they re-execute here.
        if (!op.flow_eligible || IsDemoted(op.lock_id)) {
          break;
        }
        const CtxtId ctxt = ResolveCtxt(op.ctxt, r);
        const auto key = std::make_pair(op.lock_id, ctxt);
        bool duplicate = false;
        for (const auto& seen : ts.window_flows) {
          if (seen == key) {
            duplicate = true;
            break;
          }
        }
        if (duplicate) {
          ++tally_.window_dedups;
          break;
        }
        ts.window_flows.push_back(key);
        ++flows_detected_;
        obs_flows_->Add();
        FlowEvent ev{ResolveProducer(op.producer, r), t, ctxt, op.lock_id, op.loc};
        flow_log_.push_back(ev);
        if (on_flow_) {
          on_flow_(ev);
        }
        break;
      }
    }
  }
  for (const DictWrite& w : fx.writes) {
    if (w.loc.is_mem()) {
      mem_dict_.Prefetch(w.loc.addr);
    }
  }
  for (const DictWrite& w : fx.writes) {
    if (w.erase) {
      EraseEntry(w.loc);
    } else {
      SetEntry(w.loc, Entry{ResolveCtxt(w.ctxt, r), w.lock_id, ResolveProducer(w.producer, r)});
    }
  }
  ts.post_window_left = fx.final_post_window;
  tally_.propagations += fx.n_propagations;
  tally_.associations += fx.n_associations;
  tally_.poisonings += fx.n_poisonings;
  tally_.flushes += fx.n_flushes;
  obs_dict_size_->Set(static_cast<int64_t>(dictionary_size()));
}

FlowDetector FlowDetector::CloneForShadow() const {
  FlowDetector clone(*this);
  clone.on_flow_ = nullptr;
  clone.on_demote_ = nullptr;
  clone.rec_ = nullptr;
  return clone;
}

bool FlowDetector::DeepEquals(const FlowDetector& other) const {
  if (flows_detected_ != other.flows_detected_ || flow_log_.size() != other.flow_log_.size()) {
    return false;
  }
  for (size_t i = 0; i < flow_log_.size(); ++i) {
    if (!(flow_log_[i] == other.flow_log_[i])) {
      return false;
    }
  }
  if (mem_dict_.size() != other.mem_dict_.size()) {
    return false;
  }
  bool equal = true;
  mem_dict_.ForEach([&](const vm::Addr& a, const Entry& e) {
    const Entry* oe = other.mem_dict_.Find(a);
    if (oe == nullptr || !(*oe == e)) {
      equal = false;
    }
  });
  if (!equal) {
    return false;
  }
  // Thread states beyond either vector's size are default-constructed.
  const ThreadState empty_ts;
  const size_t nthreads = std::max(threads_.size(), other.threads_.size());
  for (size_t i = 0; i < nthreads; ++i) {
    const ThreadState& a = i < threads_.size() ? threads_[i] : empty_ts;
    const ThreadState& b = i < other.threads_.size() ? other.threads_[i] : empty_ts;
    if (a.lock_stack != b.lock_stack || a.post_window_left != b.post_window_left ||
        a.window_flows != b.window_flows || a.reg_valid != b.reg_valid) {
      return false;
    }
    for (uint32_t r = 0; r < vm::kNumRegs; ++r) {
      if (((a.reg_valid >> r) & 1u) != 0 && !(a.regs[r] == b.regs[r])) {
        return false;
      }
    }
  }
  if (roles_.size() != other.roles_.size()) {
    return false;
  }
  roles_.ForEach([&](const uint64_t& lock, const LockRoles& lr) {
    const LockRoles* olr = other.roles_.Find(lock);
    if (olr == nullptr || lr.demoted != olr->demoted || !(lr.producers == olr->producers) ||
        !(lr.consumers == olr->consumers)) {
      equal = false;
    }
  });
  return equal;
}

}  // namespace whodunit::shm
