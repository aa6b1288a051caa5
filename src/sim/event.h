// Scheduled-event record: a small-buffer-optimized, move-only callable
// that replaces std::function<void()> in the scheduler's calendar.
//
// An Event only ever holds a callable; coroutine resumes never become
// Events (the scheduler keys them by frame address, scheduler.h). Two
// representations, discriminated by vt_->heap:
//   * inline callable: lambdas up to kInlineBytes construct directly
//     in the event's storage. Zero allocation.
//   * overflow callable: larger lambdas (e.g. a Channel::Send carrying
//     a fat message) live in a block from the per-thread ArenaPool, so
//     even the overflow path recycles memory instead of hitting malloc.
#ifndef SRC_SIM_EVENT_H_
#define SRC_SIM_EVENT_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "src/util/arena.h"

namespace whodunit::sim {

class Event {
 public:
  // Covers every capture list in the simulator's hot paths.
  static constexpr size_t kInlineBytes = 48;
  static constexpr size_t kInlineAlign = 16;

  Event() noexcept = default;
  Event(Event&& other) noexcept { MoveFrom(other); }
  Event& operator=(Event&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  ~Event() { Reset(); }

  template <typename F>
  static Event Of(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "overaligned event callables are not supported");
    Event e;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(e.inline_)) Fn(std::forward<F>(f));
      e.vt_ = &InlineOps<Fn>::vt;
    } else {
      void* mem = util::ArenaPool::ThisThread().Allocate(sizeof(Fn));
      e.heap_ = ::new (mem) Fn(std::forward<F>(f));
      e.vt_ = &HeapOps<Fn>::vt;
    }
    return e;
  }

  // Runs the payload and releases it; the event is empty afterwards.
  void Fire() {
    const VTable* vt = vt_;
    vt->invoke(*this);
    vt->destroy(*this);
    vt_ = nullptr;
  }

  explicit operator bool() const noexcept { return vt_ != nullptr; }
  // True when the payload lives in an arena-pooled overflow block.
  bool overflow() const noexcept { return vt_ != nullptr && vt_->heap; }

 private:
  struct VTable {
    void (*invoke)(Event&);
    void (*destroy)(Event&) noexcept;
    void (*relocate)(Event& dst, Event& src) noexcept;
    bool heap;
  };

  template <typename Fn>
  struct InlineOps {
    static Fn* Ptr(Event& e) noexcept {
      return std::launder(reinterpret_cast<Fn*>(e.inline_));
    }
    static void Invoke(Event& e) { (*Ptr(e))(); }
    static void Destroy(Event& e) noexcept { Ptr(e)->~Fn(); }
    static void Relocate(Event& dst, Event& src) noexcept {
      ::new (static_cast<void*>(dst.inline_)) Fn(std::move(*Ptr(src)));
      Ptr(src)->~Fn();
    }
    static constexpr VTable vt = {&Invoke, &Destroy, &Relocate,
                                  /*heap=*/false};
  };

  template <typename Fn>
  struct HeapOps {
    static void Invoke(Event& e) { (*static_cast<Fn*>(e.heap_))(); }
    static void Destroy(Event& e) noexcept {
      Fn* p = static_cast<Fn*>(e.heap_);
      p->~Fn();
      util::ArenaPool::ThisThread().Deallocate(p, sizeof(Fn));
    }
    static void Relocate(Event& dst, Event& src) noexcept {
      dst.heap_ = src.heap_;
    }
    static constexpr VTable vt = {&Invoke, &Destroy, &Relocate,
                                  /*heap=*/true};
  };

  void MoveFrom(Event& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(*this, other);
      other.vt_ = nullptr;
    }
  }

  void Reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(*this);
      vt_ = nullptr;
    }
  }

  union {
    void* heap_;
    alignas(kInlineAlign) unsigned char inline_[kInlineBytes];
  };
  const VTable* vt_ = nullptr;
};

}  // namespace whodunit::sim

#endif  // SRC_SIM_EVENT_H_
