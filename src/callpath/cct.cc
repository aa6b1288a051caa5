#include "src/callpath/cct.h"

#include <algorithm>
#include <sstream>

namespace whodunit::callpath {

CallingContextTree::CallingContextTree() {
  nodes_.push_back(Node{});  // root: synthetic "program" node
}

NodeIndex CallingContextTree::Child(NodeIndex node, FunctionId f) {
  auto& children = nodes_[node].children;
  auto it = children.find(f);
  if (it != children.end()) {
    return it->second;
  }
  const auto idx = static_cast<NodeIndex>(nodes_.size());
  Node child;
  child.function = f;
  child.parent = node;
  nodes_.push_back(child);
  nodes_[node].children.emplace(f, idx);
  return idx;
}

NodeIndex CallingContextTree::PathNode(const std::vector<FunctionId>& path) {
  NodeIndex n = root();
  for (FunctionId f : path) {
    n = Child(n, f);
  }
  return n;
}

std::vector<FunctionId> CallingContextTree::PathTo(NodeIndex node) const {
  std::vector<FunctionId> path;
  while (node != root() && node != kNoNode) {
    path.push_back(nodes_[node].function);
    node = nodes_[node].parent;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

uint64_t CallingContextTree::InclusiveSamples(NodeIndex node) const {
  uint64_t total = nodes_[node].samples;
  for (const auto& [f, child] : nodes_[node].children) {
    total += InclusiveSamples(child);
  }
  return total;
}

sim::SimTime CallingContextTree::InclusiveCpuTime(NodeIndex node) const {
  sim::SimTime total = nodes_[node].cpu_time;
  for (const auto& [f, child] : nodes_[node].children) {
    total += InclusiveCpuTime(child);
  }
  return total;
}

void CallingContextTree::MergeFrom(const CallingContextTree& other) {
  MergeSubtree(other, other.root(), root(), nullptr);
}

void CallingContextTree::MergeFrom(const CallingContextTree& other,
                                   const std::vector<FunctionId>& fn_remap) {
  MergeSubtree(other, other.root(), root(), &fn_remap);
}

void CallingContextTree::MergeSubtree(const CallingContextTree& other, NodeIndex theirs,
                                      NodeIndex mine, const std::vector<FunctionId>* fn_remap) {
  nodes_[mine].samples += other.nodes_[theirs].samples;
  nodes_[mine].cpu_time += other.nodes_[theirs].cpu_time;
  nodes_[mine].calls += other.nodes_[theirs].calls;
  for (const auto& [f, their_child] : other.nodes_[theirs].children) {
    const FunctionId mapped = fn_remap != nullptr && f < fn_remap->size() ? (*fn_remap)[f] : f;
    MergeSubtree(other, their_child, Child(mine, mapped), fn_remap);
  }
}

namespace {

void RenderNode(const CallingContextTree& cct, const FunctionRegistry& registry, NodeIndex node,
                int depth, double total, double min_fraction, std::ostringstream& out) {
  const auto inclusive = static_cast<double>(cct.InclusiveCpuTime(node));
  if (total > 0 && inclusive / total < min_fraction) {
    return;
  }
  if (node != cct.root()) {
    for (int i = 0; i < depth; ++i) {
      out << "  ";
    }
    const auto& n = cct.node(node);
    out << registry.Name(n.function) << "  samples=" << cct.InclusiveSamples(node)
        << " cpu=" << sim::ToMillis(cct.InclusiveCpuTime(node)) << "ms";
    if (total > 0) {
      out << " (" << 100.0 * inclusive / total << "%)";
    }
    out << "\n";
  }
  for (const auto& [f, child] : cct.node(node).children) {
    RenderNode(cct, registry, child, node == cct.root() ? depth : depth + 1, total, min_fraction,
               out);
  }
}

}  // namespace

std::string CallingContextTree::Render(const FunctionRegistry& registry,
                                       double min_fraction) const {
  std::ostringstream out;
  RenderNode(*this, registry, root(), 0, static_cast<double>(TotalCpuTime()), min_fraction, out);
  return out.str();
}

}  // namespace whodunit::callpath
