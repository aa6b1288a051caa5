// Arena-backed small vector: contiguous storage drawn from the
// calling thread's ArenaPool instead of malloc.
//
// The live-observability pipeline (src/obs/live) builds, ships, and
// retires one TxnEvent per published transaction. Backing each event's
// span and attribution blocks with std::vector means two mallocs and
// two frees per transaction on the hottest always-on path in the
// system. A PooledVec draws its block from ArenaPool::ThisThread()
// and returns it there on destruction, so the blocks recycle through
// the pool's size-class freelists: steady-state publication makes no
// malloc calls at all (bench_ablation_live_obs asserts this with an
// operator-new counter).
//
// Semantics match the std::vector subset the pipeline needs: value
// copy/move, push/clear/iterate. Moves steal the block (the channel
// hand-off and the recent-ring push are pointer swaps); copies (the
// history store's retention copy) allocate from the destination
// thread's pool. A block may be freed on a different thread than the
// one that allocated it — pool blocks are plain heap memory, so they
// simply join the freeing thread's freelist.
//
// PooledVec<T, N> with N > 0 keeps its first N elements inline, in the
// bytes that otherwise hold the block pointer, and draws a pool block
// only once it grows past N. context::Synopsis is a
// PooledVec<uint32_t, 4>: 24 bytes like the std::vector it replaces,
// and no allocation at all for the synopses the applications send
// (none has more than four parts). An inline vector moves by moving
// its elements, so its moves cost O(N) rather than a pointer swap.
#ifndef SRC_UTIL_POOLED_VEC_H_
#define SRC_UTIL_POOLED_VEC_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "src/util/arena.h"

namespace whodunit::util {

template <typename T, size_t N = 0>
class PooledVec {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "PooledVec elements must be nothrow-movable (growth moves)");
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "ArenaPool blocks carry default new alignment");

 public:
  PooledVec() = default;

  PooledVec(std::initializer_list<T> init) {
    reserve(init.size());
    for (const T& value : init) {
      emplace_back(value);
    }
  }

  PooledVec(const PooledVec& other) { CopyFrom(other); }

  PooledVec& operator=(const PooledVec& other) {
    if (this != &other) {
      clear();
      CopyFrom(other);
    }
    return *this;
  }

  PooledVec(PooledVec&& other) noexcept { StealFrom(other); }

  PooledVec& operator=(PooledVec&& other) noexcept {
    if (this != &other) {
      Release();
      StealFrom(other);
    }
    return *this;
  }

  ~PooledVec() { Release(); }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t capacity() const { return cap_; }

  T* data() { return IsInline() ? InlineData() : heap_; }
  const T* data() const { return IsInline() ? InlineData() : heap_; }

  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  T& front() { return data()[0]; }
  const T& front() const { return data()[0]; }
  T& back() { return data()[size_ - 1]; }
  const T& back() const { return data()[size_ - 1]; }

  void reserve(size_t n) {
    if (n > cap_) {
      Grow(n);
    }
  }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) {
      Grow(size_ + 1);
    }
    T* slot = data() + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() {
    --size_;
    data()[size_].~T();
  }

  // Destroys the elements but keeps the block for reuse.
  void clear() {
    DestroyElements();
    size_ = 0;
  }

  friend bool operator==(const PooledVec& a, const PooledVec& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  // Lexicographic, like std::vector's.
  friend bool operator<(const PooledVec& a, const PooledVec& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  static constexpr uint32_t kMinCapacity = 4;

  bool IsInline() const { return N > 0 && cap_ == N; }
  T* InlineData() { return std::launder(reinterpret_cast<T*>(inline_)); }
  const T* InlineData() const { return std::launder(reinterpret_cast<const T*>(inline_)); }

  void CopyFrom(const PooledVec& other) {
    reserve(other.size_);
    T* dst = data();
    for (size_t i = 0; i < other.size_; ++i) {
      ::new (static_cast<void*>(dst + i)) T(other[i]);
    }
    size_ = other.size_;
  }

  // Takes `other`'s elements, leaving it empty: a pool block changes
  // owner, inline elements are moved one by one.
  void StealFrom(PooledVec& other) noexcept {
    if (other.IsInline()) {
      T* dst = InlineData();
      T* src = other.InlineData();
      for (size_t i = 0; i < other.size_; ++i) {
        ::new (static_cast<void*>(dst + i)) T(std::move(src[i]));
        src[i].~T();
      }
    } else {
      heap_ = other.heap_;
      cap_ = other.cap_;
      other.heap_ = nullptr;
      other.cap_ = N;
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  void Grow(size_t need) {
    size_t next = cap_ == 0 ? kMinCapacity : static_cast<size_t>(cap_) * 2;
    while (next < need) {
      next *= 2;
    }
    T* block = static_cast<T*>(ArenaPool::ThisThread().Allocate(next * sizeof(T)));
    T* old = data();
    for (size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(block + i)) T(std::move(old[i]));
      old[i].~T();
    }
    if (!IsInline() && heap_ != nullptr) {
      ArenaPool::ThisThread().Deallocate(heap_, static_cast<size_t>(cap_) * sizeof(T));
    }
    heap_ = block;
    cap_ = static_cast<uint32_t>(next);
  }

  void DestroyElements() {
    T* elems = data();
    for (size_t i = size_; i-- > 0;) {
      elems[i].~T();
    }
  }

  void Release() {
    DestroyElements();
    if (!IsInline() && heap_ != nullptr) {
      ArenaPool::ThisThread().Deallocate(heap_, static_cast<size_t>(cap_) * sizeof(T));
    }
    heap_ = nullptr;
    size_ = 0;
    cap_ = N;
  }

  // The block pointer, or (N > 0, cap_ == N) the inline elements.
  union {
    T* heap_ = nullptr;
    alignas(T) unsigned char inline_[N == 0 ? 1 : N * sizeof(T)];
  };
  uint32_t size_ = 0;
  uint32_t cap_ = N;
};

}  // namespace whodunit::util

#endif  // SRC_UTIL_POOLED_VEC_H_
