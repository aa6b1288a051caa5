// Minimal HTTP-ish message types shared by the simulated applications.
//
// The reproduced servers (minihttpd, miniproxy, the SEDA server, the
// bookstore) exchange these over sim::Channel. Contents are abstract —
// what matters for the experiments is who talks to whom, how many
// bytes move, and what each hop costs.
#ifndef SRC_HTTP_HTTP_H_
#define SRC_HTTP_HTTP_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/context/synopsis.h"

namespace whodunit::http {

struct Request {
  uint64_t id = 0;         // unique per in-flight request
  uint32_t object_id = 0;  // which object / which page
  uint32_t client = 0;     // issuing client (for reply routing)
  bool keep_alive = false;
  uint64_t header_bytes = 300;
  // Whodunit piggy-back (empty when profiling is off / not Whodunit).
  context::Synopsis synopsis;
};

struct Response {
  uint64_t id = 0;
  uint32_t object_id = 0;
  uint64_t body_bytes = 0;
  int status = 200;
  context::Synopsis synopsis;
};

// Deterministic synthetic content store: object sizes follow a
// bounded Pareto-like distribution derived from the object id. They are
// computed once at construction, because SizeOf sits on every request
// path and std::pow would be its whole cost.
class ObjectStore {
 public:
  ObjectStore(uint64_t objects, uint64_t min_bytes, uint64_t max_bytes) {
    sizes_.reserve(objects);
    for (uint64_t id = 0; id < objects; ++id) {
      sizes_.push_back(ComputeSize(static_cast<uint32_t>(id), min_bytes, max_bytes));
    }
  }

  uint64_t objects() const { return sizes_.size(); }

  uint64_t SizeOf(uint32_t object_id) const {
    assert(object_id < sizes_.size());
    return sizes_[object_id];
  }

 private:
  static uint64_t ComputeSize(uint32_t object_id, uint64_t min_bytes, uint64_t max_bytes) {
    // splitmix64 of the id -> heavy-tailed size in [min, max].
    uint64_t x = object_id + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    // Map to a Pareto-ish tail: most objects small, a few large.
    const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
    const double alpha = 1.2;
    double size = static_cast<double>(min_bytes) / std::pow(1.0 - u, 1.0 / alpha);
    if (size > static_cast<double>(max_bytes)) {
      size = static_cast<double>(max_bytes);
    }
    return static_cast<uint64_t>(size);
  }

  std::vector<uint64_t> sizes_;
};

}  // namespace whodunit::http

#endif  // SRC_HTTP_HTTP_H_
