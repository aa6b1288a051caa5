#include "src/context/context_tree.h"

namespace whodunit::context {
namespace {

// One FNV-1a fold step over the 8 bytes of a packed element; chaining
// these left-to-right hashes the whole packed element sequence.
uint64_t FnvStep(uint64_t h, uint64_t packed) {
  for (int i = 0; i < 8; ++i) {
    h ^= (packed >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

}  // namespace

ContextTree::ContextTree()
    : obs_appends_(&obs::Registry().GetCounter("context.tree_appends")),
      obs_prunings_(&obs::Registry().GetCounter("context.tree_prunings")),
      obs_nodes_(&obs::Registry().GetGauge("context.tree_nodes")) {
  // Node 0: the empty context (the tree root).
  nodes_.push_back(Node{kEmptyContext, Element{}, 0, kFnvBasis});
  obs_nodes_->Add(1);
}

NodeId ContextTree::Child(NodeId parent, Element e) {
  const ChildKey key{parent, e.Packed()};
  if (NodeId* found = children_.Find(key)) {
    return *found;
  }
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{parent, e, nodes_[parent].depth + 1,
                        FnvStep(nodes_[parent].hash, e.Packed())});
  children_.Upsert(key, id);
  obs_nodes_->Add(1);
  return id;
}

NodeId ContextTree::Append(NodeId ctxt, Element e, bool prune) {
  obs_appends_->Add();
  if (prune) {
    // §4.1: if e already occurs on the path, the new occurrence closes
    // a loop; cut the suffix after the latest prior occurrence — which
    // is exactly the nearest ancestor (or self) spelling e.
    for (NodeId walk = ctxt; walk != kEmptyContext; walk = nodes_[walk].parent) {
      if (nodes_[walk].elem == e) {
        obs_prunings_->Add();
        return walk;
      }
    }
  }
  return Child(ctxt, e);
}

void ContextTree::PathInto(NodeId ctxt, Element* out) const {
  uint32_t i = nodes_[ctxt].depth;
  for (NodeId walk = ctxt; walk != kEmptyContext; walk = nodes_[walk].parent) {
    out[--i] = nodes_[walk].elem;
  }
}

NodeId ContextTree::Concat(NodeId prefix, NodeId suffix) {
  if (suffix == kEmptyContext) {
    return prefix;
  }
  // Pruned contexts are short (bounded by the element universe), so the
  // suffix's elements fit a stack buffer; spill to the heap otherwise.
  Element stack_buf[64];
  std::vector<Element> heap_buf;
  const uint32_t depth = nodes_[suffix].depth;
  Element* elems = stack_buf;
  if (depth > 64) {
    heap_buf.resize(depth);
    elems = heap_buf.data();
  }
  PathInto(suffix, elems);
  NodeId out = prefix;
  for (uint32_t j = 0; j < depth; ++j) {
    out = Append(out, elems[j]);
  }
  return out;
}

bool ContextTree::HasPrefix(NodeId ctxt, NodeId prefix) const {
  const uint32_t want = nodes_[prefix].depth;
  if (want > nodes_[ctxt].depth) {
    return false;
  }
  NodeId walk = ctxt;
  for (uint32_t d = nodes_[ctxt].depth; d > want; --d) {
    walk = nodes_[walk].parent;
  }
  return walk == prefix;
}

std::string ContextTree::ToString(
    NodeId ctxt, const std::function<std::string(ElementKind, uint32_t)>& namer) const {
  std::vector<Element> elems(nodes_[ctxt].depth);
  PathInto(ctxt, elems.data());
  std::string out = "[";
  for (size_t i = 0; i < elems.size(); ++i) {
    if (i > 0) {
      out += "|";
    }
    out += namer(elems[i].kind, elems[i].id);
  }
  out += "]";
  return out;
}

}  // namespace whodunit::context
