// Fixed-capacity LRU set of 32-bit keys: the in-memory object caches of
// the proxy (Squid's store) and the SEDA server's cache stage.
//
// A std::list plus std::unordered_map of iterators allocates two nodes
// on every miss and frees two on every eviction. Here the recency list
// is threaded through a node array sized once to the capacity, and the
// key index is an open-addressing table, so a full cache recycles the
// evicted node for the inserted key and never calls the allocator.
#ifndef SRC_UTIL_LRU_SET_H_
#define SRC_UTIL_LRU_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/robin_hood.h"

namespace whodunit::util {

class LruSet {
 public:
  explicit LruSet(size_t capacity);

  // True if `key` is cached; a hit becomes the most recently used key.
  bool Lookup(uint32_t key);

  // Caches `key` as the most recently used key unless it is already
  // cached (then its recency is left alone). A full set first evicts
  // its least recently used key.
  void Insert(uint32_t key);

 private:
  static constexpr uint32_t kNone = ~0u;

  struct Node {
    uint32_t key;
    uint32_t prev;  // toward the most recently used end
    uint32_t next;  // toward the least recently used end
  };

  void Unlink(uint32_t i);
  void PushFront(uint32_t i);

  size_t capacity_;
  std::vector<Node> nodes_;
  uint32_t head_ = kNone;  // most recently used
  uint32_t tail_ = kNone;  // least recently used
  RobinHoodMap<uint32_t, uint32_t> index_;  // key -> node
};

}  // namespace whodunit::util

#endif  // SRC_UTIL_LRU_SET_H_
