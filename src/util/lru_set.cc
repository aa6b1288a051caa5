#include "src/util/lru_set.h"

namespace whodunit::util {

LruSet::LruSet(size_t capacity) : capacity_(capacity) { nodes_.reserve(capacity); }

bool LruSet::Lookup(uint32_t key) {
  const uint32_t* node = index_.Find(key);
  if (node == nullptr) {
    return false;
  }
  if (*node != head_) {
    const uint32_t i = *node;
    Unlink(i);
    PushFront(i);
  }
  return true;
}

void LruSet::Insert(uint32_t key) {
  if (capacity_ == 0 || index_.Contains(key)) {
    return;
  }
  uint32_t i;
  if (nodes_.size() < capacity_) {
    i = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(Node{key, kNone, kNone});
  } else {
    i = tail_;
    Unlink(i);
    index_.Erase(nodes_[i].key);
    nodes_[i].key = key;
  }
  PushFront(i);
  index_.Upsert(key, i);
}

void LruSet::Unlink(uint32_t i) {
  Node& n = nodes_[i];
  (n.prev == kNone ? head_ : nodes_[n.prev].next) = n.next;
  (n.next == kNone ? tail_ : nodes_[n.next].prev) = n.prev;
}

void LruSet::PushFront(uint32_t i) {
  Node& n = nodes_[i];
  n.prev = kNone;
  n.next = head_;
  (head_ == kNone ? tail_ : nodes_[head_].prev) = i;
  head_ = i;
}

}  // namespace whodunit::util
