// Transaction contexts (paper §2, §4.1) as a hash-consed context tree.
//
// A transaction context is the execution history of a request across
// stages: an ordered sequence of elements, each one either a call path
// (at a message-send point), an event-handler name, or a stage name.
// Appending applies the paper's §4.1 pruning: consecutive duplicate
// elements collapse (an event handler re-scheduled to finish an I/O),
// and loops of length > 1 are pruned by cutting the suffix that closes
// the loop (requests on a persistent connection, RPC-style ping-pong).
//
// The set of contexts a run ever produces is tiny and highly shared
// (pruning bounds each context by the element universe), so the
// sequences form a tree: every context is a path from the root, and
// two contexts that share a prefix share the tree nodes for it. A
// context is a 32-bit NodeId whose node stores (parent, last element,
// depth, running hash), and the context operations become:
//   * Append       — one hash-cons probe, plus an ancestor walk of at
//                    most the pruned-context length when pruning cuts
//                    a loop (O(loop window), paper §4.1);
//   * equality     — NodeId comparison (hash-consing is canonical:
//                    same element sequence <=> same NodeId);
//   * Hash         — FNV-1a over the packed element sequence,
//                    precomputed at interning, O(1);
//   * Concat       — appends of the suffix's elements at the seam;
//   * HasPrefix    — ancestor walk of the depth difference.
//
// The tree is append-only and owned by one profiler::Deployment, which
// hands it to the event library, the SEDA middleware and its stage
// profilers; like the rest of the profiler runtime it assumes the
// simulator's single-threaded execution model.
#ifndef SRC_CONTEXT_CONTEXT_TREE_H_
#define SRC_CONTEXT_CONTEXT_TREE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/robin_hood.h"

namespace whodunit::context {

enum class ElementKind : uint8_t {
  kCallPath = 0,  // a node of the deployment's path tree at a produce/send point
  kHandler = 1,   // an event handler (event-driven stage)
  kStage = 2,     // a SEDA stage
};

// One step of a transaction's execution history.
struct Element {
  ElementKind kind;
  uint32_t id;

  friend bool operator==(const Element&, const Element&) = default;
  uint64_t Packed() const { return (static_cast<uint64_t>(kind) << 32) | id; }
};

// An interned transaction context. Value 0 is the empty context.
//
// shm::CtxtId aliases this type (src/shm/section_summary.h pins the
// bridge with static_asserts): flow summaries store NodeIds directly,
// so replaying a cached critical section never walks a context.
// shm reserves 0xffffffff as its invalid-context sentinel — keep
// NodeIds well below it (the tree is bounded by distinct prefixes,
// orders of magnitude smaller).
using NodeId = uint32_t;
inline constexpr NodeId kEmptyContext = 0;

class ContextTree {
 public:
  ContextTree();

  // The §4.1 append: if `e` already occurs in the context, the new
  // occurrence closes a loop (length 1 when it is the last element —
  // the consecutive-duplicate collapse), so the suffix after its latest
  // prior occurrence is cut instead: [accept, read, write] + read ->
  // [accept, read]. O(1) hash-cons probe on the no-loop fast path.
  // `prune = false` keeps the complete history (the pruning ablation).
  NodeId Append(NodeId ctxt, Element e, bool prune = true);

  // Prefix-then-suffix with pruning applied at the seam.
  NodeId Concat(NodeId prefix, NodeId suffix);

  // Precomputed FNV-1a over the packed element sequence.
  uint64_t HashOf(NodeId ctxt) const { return nodes_[ctxt].hash; }

  // Element count of the context (depth of the node).
  uint32_t SizeOf(NodeId ctxt) const { return nodes_[ctxt].depth; }
  bool Empty(NodeId ctxt) const { return ctxt == kEmptyContext; }

  // True if `prefix` is a (not necessarily proper) prefix of `ctxt`:
  // an ancestor-or-self check, O(depth difference).
  bool HasPrefix(NodeId ctxt, NodeId prefix) const;

  // Last element / parent of a non-empty context.
  Element LastElement(NodeId ctxt) const { return nodes_[ctxt].elem; }
  NodeId ParentOf(NodeId ctxt) const { return nodes_[ctxt].parent; }

  // Debug form like "[H:accept|H:read]" given a namer for (kind, id).
  std::string ToString(
      NodeId ctxt,
      const std::function<std::string(ElementKind, uint32_t)>& namer) const;

  size_t node_count() const { return nodes_.size(); }

 private:
  struct Node {
    NodeId parent = kEmptyContext;
    Element elem{};      // last element of the sequence this node spells
    uint32_t depth = 0;  // element count
    uint64_t hash = 0;   // FNV-1a of the packed element sequence
  };
  struct ChildKey {
    NodeId parent;
    uint64_t elem;  // Element::Packed()
    friend bool operator==(const ChildKey&, const ChildKey&) = default;
  };
  struct ChildKeyHash {
    size_t operator()(const ChildKey& k) const {
      return SplitMix(k.elem * 0x9e3779b97f4a7c15ull + k.parent);
    }
    static size_t SplitMix(uint64_t x) {
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 27;
      return static_cast<size_t>(x ^ (x >> 31));
    }
  };

  // The hash-cons step: the child of `parent` extending it with `e`,
  // creating it on first use.
  NodeId Child(NodeId parent, Element e);

  // Writes the context's SizeOf(ctxt) elements, root first, to `out`.
  void PathInto(NodeId ctxt, Element* out) const;

  std::vector<Node> nodes_;
  util::RobinHoodMap<ChildKey, NodeId, ChildKeyHash> children_;

  // Self-observability handles, resolved once (see docs/METRICS.md).
  obs::Counter* obs_appends_;
  obs::Counter* obs_prunings_;
  obs::Gauge* obs_nodes_;
};

}  // namespace whodunit::context

#endif  // SRC_CONTEXT_CONTEXT_TREE_H_
