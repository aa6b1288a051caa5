// Transaction-context synopses (paper §7.4).
//
// Shipping a whole transaction context with every message would be
// expensive, so Whodunit sends a *synopsis*: each stage keeps a
// dictionary of the contexts it has seen and represents each with a
// 4-byte id. A response's synopsis is the caller's synopsis, the '#'
// delimiter, then the callee's own part — `synopsis(α)#synopsis(β)` —
// which lets the caller recognize its own synopsis as a prefix and
// conclude the message is a reply rather than a new request.
#ifndef SRC_CONTEXT_SYNOPSIS_H_
#define SRC_CONTEXT_SYNOPSIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/context/context_tree.h"
#include "src/obs/metrics.h"
#include "src/util/pooled_vec.h"
#include "src/util/robin_hood.h"

namespace whodunit::context {

// A synopsis: one or more 4-byte context ids joined by '#'. Up to four
// parts live inline, so copying a synopsis onto a message or into a
// thread's saved state does not allocate.
struct Synopsis {
  util::PooledVec<uint32_t, 4> parts;

  friend bool operator==(const Synopsis&, const Synopsis&) = default;

  bool empty() const { return parts.empty(); }

  // True when `p` is a prefix of this synopsis (the reply-recognition
  // test of §5).
  bool HasPrefix(const Synopsis& p) const;

  // Appends the other synopsis after a '#'.
  Synopsis Extend(const Synopsis& tail) const;

  // Bytes this synopsis occupies on the wire: 4 bytes per part plus
  // one '#' delimiter between parts. This is what the communication
  // overhead measurement (§9.1) charges.
  size_t WireBytes() const;

  // "12#7" — for reports and debugging.
  std::string ToString() const;

  uint64_t Hash() const;
};

struct SynopsisHash {
  size_t operator()(const Synopsis& s) const { return static_cast<size_t>(s.Hash()); }
};

// Per-stage dictionary: transaction context <-> 4-byte synopsis part.
// (The paper: "maintains transaction contexts and their synopses in a
// dictionary".) Contexts are stored as NodeIds of the deployment's
// context tree, so interning at a send point is one O(1) integer-keyed
// probe rather than a full-sequence hash and copy.
class SynopsisDictionary {
 public:
  // Returns the synopsis part for the interned context, assigning the
  // next id if new. This is the send-point hot path.
  uint32_t Intern(NodeId ctxt);

  // The context a previously interned part id names. O(1).
  NodeId Lookup(uint32_t part) const { return contexts_.at(part); }

  bool Contains(uint32_t part) const { return part < contexts_.size(); }
  size_t size() const { return contexts_.size(); }

 private:
  util::RobinHoodMap<NodeId, uint32_t> ids_;
  std::vector<NodeId> contexts_;
  // Bound at construction so a dictionary built inside a shard isolate
  // reports into that shard's registry.
  obs::Counter* obs_hits_ = &obs::Registry().GetCounter("synopsis.dict_hits");
  obs::Counter* obs_inserts_ = &obs::Registry().GetCounter("synopsis.dict_inserts");
};

}  // namespace whodunit::context

#endif  // SRC_CONTEXT_SYNOPSIS_H_
