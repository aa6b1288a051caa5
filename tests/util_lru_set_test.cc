// Differential test: util::LruSet against the std::list + map LRU the
// proxy and SEDA caches used before it. Hits and misses decide which
// requests reach the origin, so the two must agree on every lookup.
#include "src/util/lru_set.h"

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>

#include "src/util/rng.h"

namespace whodunit::util {
namespace {

class ListLru {
 public:
  explicit ListLru(size_t capacity) : capacity_(capacity) {}

  bool Lookup(uint32_t key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return false;
    }
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }

  void Insert(uint32_t key) {
    if (index_.contains(key)) {
      return;
    }
    order_.push_front(key);
    index_[key] = order_.begin();
    if (order_.size() > capacity_) {
      index_.erase(order_.back());
      order_.pop_back();
    }
  }

 private:
  size_t capacity_;
  std::list<uint32_t> order_;
  std::unordered_map<uint32_t, std::list<uint32_t>::iterator> index_;
};

TEST(LruSetTest, AgreesWithListLru) {
  for (const size_t capacity : {0u, 1u, 2u, 7u, 64u}) {
    LruSet lru(capacity);
    ListLru ref(capacity);
    Rng rng(capacity + 1);
    for (int i = 0; i < 20000; ++i) {
      const auto key = static_cast<uint32_t>(rng.NextBelow(3 * capacity + 2));
      if (rng.NextBelow(2) == 0) {
        ASSERT_EQ(lru.Lookup(key), ref.Lookup(key)) << "capacity " << capacity << " step " << i;
      } else {
        lru.Insert(key);
        ref.Insert(key);
      }
    }
  }
}

}  // namespace
}  // namespace whodunit::util
