// Calling Context Tree (CCT), after Ammons/Ball/Larus [5] and csprof.
//
// Each node is one call path (the chain of FunctionIds from the root).
// Profile samples and virtual CPU time accumulate on the node that was
// executing when the sample fired. Whodunit labels whole CCTs with a
// transaction-context synopsis and switches between them as
// transactions move through a stage (paper §7.1).
#ifndef SRC_CALLPATH_CCT_H_
#define SRC_CALLPATH_CCT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/callpath/function_registry.h"
#include "src/sim/time.h"

namespace whodunit::callpath {

using NodeIndex = uint32_t;
inline constexpr NodeIndex kNoNode = 0xffffffffu;

class CallingContextTree {
 public:
  struct Node {
    FunctionId function = 0;
    NodeIndex parent = kNoNode;
    uint64_t samples = 0;       // statistical samples attributed here (exclusive)
    sim::SimTime cpu_time = 0;  // virtual ns attributed here (exclusive)
    uint64_t calls = 0;         // entry count (used by the gprof baseline)
    // Ordered for deterministic reports.
    std::map<FunctionId, NodeIndex> children;
  };

  CallingContextTree();

  NodeIndex root() const { return 0; }

  // Finds or creates the child of `node` for function f.
  NodeIndex Child(NodeIndex node, FunctionId f);

  // Walks/creates a whole path below the root.
  NodeIndex PathNode(const std::vector<FunctionId>& path);

  void AddSample(NodeIndex node, uint64_t count = 1) { nodes_[node].samples += count; }
  void AddCpuTime(NodeIndex node, sim::SimTime t) { nodes_[node].cpu_time += t; }
  void AddCall(NodeIndex node) { ++nodes_[node].calls; }
  void AddCalls(NodeIndex node, uint64_t count) { nodes_[node].calls += count; }

  const Node& node(NodeIndex i) const { return nodes_[i]; }
  size_t size() const { return nodes_.size(); }

  // Path from root (exclusive) to node, as function ids.
  std::vector<FunctionId> PathTo(NodeIndex node) const;

  // Sum of samples / cpu_time over the subtree rooted at node.
  uint64_t InclusiveSamples(NodeIndex node) const;
  sim::SimTime InclusiveCpuTime(NodeIndex node) const;

  // Totals over the whole tree.
  uint64_t TotalSamples() const { return InclusiveSamples(root()); }
  sim::SimTime TotalCpuTime() const { return InclusiveCpuTime(root()); }

  // Merges another CCT into this one (summing counters node-by-node).
  void MergeFrom(const CallingContextTree& other);
  // Same, translating the other tree's FunctionIds through `fn_remap`
  // (remap[their_id] = my_id, from SymbolTable::MergeFrom) —
  // for merging CCTs built against a different function registry.
  void MergeFrom(const CallingContextTree& other, const std::vector<FunctionId>& fn_remap);

  // Renders an indented text tree: "name  samples=N cpu=Xms (Y%)".
  // Nodes below min_fraction of total inclusive time are elided.
  std::string Render(const FunctionRegistry& registry, double min_fraction = 0.0) const;

 private:
  void MergeSubtree(const CallingContextTree& other, NodeIndex theirs, NodeIndex mine,
                    const std::vector<FunctionId>* fn_remap);

  std::vector<Node> nodes_;
};

}  // namespace whodunit::callpath

#endif  // SRC_CALLPATH_CCT_H_
