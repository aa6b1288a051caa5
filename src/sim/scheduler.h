// Discrete-event scheduler: the heart of the virtual-time simulator.
#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/event.h"
#include "src/sim/time.h"

namespace whodunit::sim {

// A calendar of (virtual time, callback) events executed in time order.
//
// Ties are broken by insertion order (FIFO), which keeps simulations
// deterministic when many events share a timestamp. The scheduler is
// deliberately minimal: coroutine awaitables (Delay, locks, channels,
// CPU) build on ResumeAt/ResumeAfter and ScheduleAt/ScheduleAfter.
//
// The calendar is an index heap: a 4-ary min-heap of 24-byte
// (time, seq, ref) keys, so a sift moves keys, not payloads. seq is the
// scheduler's insertion counter, so (time, seq) is a total order: the
// execution order is fully determined by the events scheduled, which
// keeps the shard merge determinism contract.
//
// ref is a tagged word. A coroutine resume, the common entry, stores
// the frame address itself (frames are at least 2-byte aligned, so
// bit 0 is clear): pushing it touches nothing but the heap, and Step
// resumes it straight from the popped key. A callback is a sim::Event
// in a slot vector and ref holds (slot << 1) | 1; the event never
// moves while queued, and Step frees its slot before firing it, so the
// pushes the callback makes can reuse it and a warm calendar never
// allocates. Small lambdas stay inline in the Event, oversized ones
// come from the per-thread arena pool instead of malloc.
class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler() { PublishMetrics(); }

  SimTime now() const { return now_; }

  // Enqueues cb to run at absolute virtual time t (>= now).
  template <typename F>
  void ScheduleAt(SimTime t, F&& cb) {
    PushEvent(t, Event::Of(std::forward<F>(cb)));
  }

  // Enqueues cb to run dt nanoseconds from now (dt < 0 is clamped to 0).
  template <typename F>
  void ScheduleAfter(SimTime dt, F&& cb) {
    ScheduleAt(now_ + (dt < 0 ? 0 : dt), std::forward<F>(cb));
  }

  // Resumes a coroutine at/after a time. The calendar entry is the key
  // alone: no slot, no Event.
  void ResumeAt(SimTime t, std::coroutine_handle<> h) {
    const auto frame = reinterpret_cast<uintptr_t>(h.address());
    assert(frame != 0 && (frame & kSlotTag) == 0);
    PushKey(t, frame);
  }
  void ResumeAfter(SimTime dt, std::coroutine_handle<> h) {
    ResumeAt(now_ + (dt < 0 ? 0 : dt), h);
  }

  // Runs events until the calendar is empty.
  void Run() {
    while (Step()) {
    }
  }

  // Runs events with time <= t, then sets now to t. Events scheduled
  // beyond t stay queued.
  void RunUntil(SimTime t) {
    while (!heap_.empty() && heap_.front().time <= t) {
      Step();
    }
    if (now_ < t) {
      now_ = t;
    }
  }

  // Executes the single earliest event; returns false if none.
  bool Step() {
    if (heap_.empty()) {
      return false;
    }
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      SiftDown(0, last);
    }
    now_ = top.time;
    ++events_executed_;
    if ((top.ref & kSlotTag) == 0) {
      std::coroutine_handle<>::from_address(reinterpret_cast<void*>(top.ref)).resume();
      return true;
    }
    const auto slot = static_cast<uint32_t>(top.ref >> 1);
    Event ev = std::move(slots_[slot]);
    free_slots_.push_back(slot);
    ev.Fire();
    return true;
  }

  bool empty() const { return heap_.empty(); }
  size_t queue_depth() const { return heap_.size(); }
  uint64_t events_executed() const { return events_executed_; }
  uint64_t events_scheduled() const { return events_scheduled_; }
  // Most events resident in the calendar at once.
  uint64_t peak_queue_depth() const { return peak_depth_; }

  // Folds the scheduler's deterministic counters into the calling
  // thread's metrics registry (docs/METRICS.md, sim.* family). Runs
  // automatically on destruction — app schedulers are shard-locals, so
  // the counts land in the shard registry and merge in shard order —
  // but benches may call it earlier to snapshot mid-run. Publishes
  // deltas since the previous call, so calling twice never
  // double-counts.
  void PublishMetrics() {
    obs::MetricsRegistry& reg = obs::Registry();
    reg.GetCounter("sim.events_scheduled")
        .Add(events_scheduled_ - published_.scheduled);
    reg.GetCounter("sim.events_executed")
        .Add(events_executed_ - published_.executed);
    published_ = {events_scheduled_, events_executed_};
    // Peak depth is a high-water mark, not a flow: fold as a gauge
    // (gauges add across shards, giving the sum of per-shard peaks).
    obs::Gauge& peak = reg.GetGauge("sim.queue_peak_depth");
    int64_t depth = static_cast<int64_t>(peak_depth_);
    if (depth > last_peak_gauge_) {
      peak.Add(depth - last_peak_gauge_);
      last_peak_gauge_ = depth;
    }
  }

 private:
  struct Published {
    uint64_t scheduled = 0;
    uint64_t executed = 0;
  };

  // A calendar entry: when the event runs, its insertion order, and
  // what runs: a coroutine frame address, or (slots_ index << 1) |
  // kSlotTag for a callback.
  struct Key {
    SimTime time;
    uint64_t seq;
    uintptr_t ref;
  };
  static_assert(sizeof(Key) == 24);
  static bool Before(const Key& a, const Key& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  static constexpr size_t kArity = 4;
  static constexpr uintptr_t kSlotTag = 1;

  void PushEvent(SimTime t, Event ev) {
    uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.push_back(std::move(ev));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = std::move(ev);
    }
    PushKey(t, (static_cast<uintptr_t>(slot) << 1) | kSlotTag);
  }

  void PushKey(SimTime t, uintptr_t ref) {
    if (t < now_) {
      t = now_;
    }
    heap_.push_back(Key{t, next_seq_++, ref});
    SiftUp(heap_.size() - 1);
    if (heap_.size() > peak_depth_) {
      peak_depth_ = heap_.size();
    }
    ++events_scheduled_;
  }

  // Moves the key at index i up to its place, shifting parents down
  // into the hole instead of swapping.
  void SiftUp(size_t i) {
    const Key key = heap_[i];
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!Before(key, heap_[parent])) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = key;
  }

  // Places `key` into the subtree whose root, index i, is a hole,
  // shifting the earliest child up while it runs before `key`.
  void SiftDown(size_t i, Key key) {
    const size_t n = heap_.size();
    for (;;) {
      const size_t first = i * kArity + 1;
      if (first >= n) {
        break;
      }
      const size_t end = first + kArity < n ? first + kArity : n;
      size_t best = first;
      for (size_t c = first + 1; c < end; ++c) {
        if (Before(heap_[c], heap_[best])) {
          best = c;
        }
      }
      if (!Before(heap_[best], key)) {
        break;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = key;
  }

  std::vector<Key> heap_;
  std::vector<Event> slots_;
  std::vector<uint32_t> free_slots_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  uint64_t events_scheduled_ = 0;
  uint64_t peak_depth_ = 0;
  Published published_;
  int64_t last_peak_gauge_ = 0;
};

// Awaitable that suspends the current coroutine for dt virtual ns.
// Usage: co_await Delay{sched, Micros(5)};
struct Delay {
  Scheduler& sched;
  SimTime dt;

  bool await_ready() const noexcept { return dt <= 0; }
  void await_suspend(std::coroutine_handle<> h) const { sched.ResumeAfter(dt, h); }
  void await_resume() const noexcept {}
};

}  // namespace whodunit::sim

#endif  // SRC_SIM_SCHEDULER_H_
