// Calling Context Trees (CCTs), after Ammons/Ball/Larus [5] and csprof.
//
// A PathTree interns call paths: an id names one chain of FunctionIds
// from the root, and a child's id exceeds its parent's. A CCT is a set
// of counters indexed by path id: samples and virtual CPU time land on
// the path executing when the sample fired. Whodunit labels whole CCTs
// with a transaction-context synopsis and switches between them as
// transactions move through a stage (paper §7.1).
#ifndef SRC_CALLPATH_CCT_H_
#define SRC_CALLPATH_CCT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/callpath/function_registry.h"
#include "src/sim/time.h"
#include "src/util/robin_hood.h"

namespace whodunit::callpath {

using PathId = uint32_t;

class PathTree {
 public:
  PathTree();

  // The empty path: function 0, its own parent.
  PathId root() const { return 0; }

  // Finds or creates the path `parent` extended by f.
  PathId Child(PathId parent, FunctionId f);

  PathId parent(PathId p) const { return nodes_[p].parent; }
  FunctionId function(PathId p) const { return nodes_[p].function; }
  size_t size() const { return nodes_.size(); }

  // The path's functions from the root (exclusive) down.
  std::vector<FunctionId> PathTo(PathId p) const;

 private:
  struct Node {
    PathId parent;
    FunctionId function;
  };

  std::vector<Node> nodes_;
  // (parent << 32 | function) -> child.
  util::RobinHoodMap<uint64_t, PathId> children_;
};

struct PathCounters {
  uint64_t samples = 0;       // statistical samples attributed here
  sim::SimTime cpu_time = 0;  // virtual ns attributed here
  uint64_t calls = 0;         // entry count (used by the gprof baseline)
  bool held = false;          // whether the CCT holds this path

  // Sums the counters; `held` is left alone.
  PathCounters& operator+=(const PathCounters& other) {
    samples += other.samples;
    cpu_time += other.cpu_time;
    calls += other.calls;
    return *this;
  }
};

class CallingContextTree {
 public:
  // Holds the root only.
  CallingContextTree();

  // Holds p and its ancestors, walking up only to the first path
  // already held: the held set stays closed under ancestors.
  void Hold(const PathTree& paths, PathId p);

  // Holds p and adds c's counters there; p's parent must be held.
  void Add(PathId p, const PathCounters& c) {
    if (p >= counters_.size()) {
      counters_.resize(p + 1);
    }
    held_ += counters_[p].held ? 0 : 1;
    counters_[p].held = true;
    counters_[p] += c;
  }

  bool holds(PathId p) const { return p < counters_.size() && counters_[p].held; }
  // Counters at p (exclusive); p < id_limit().
  const PathCounters& at(PathId p) const { return counters_[p]; }
  // Every held path id is below this.
  PathId id_limit() const { return static_cast<PathId>(counters_.size()); }
  // Number of held paths, the root included.
  size_t size() const { return held_; }

  // Subtree totals by path id, from one reverse pass over the ids.
  std::vector<PathCounters> Inclusive(const PathTree& paths) const;

  // Totals over the whole tree.
  PathCounters Total() const;
  uint64_t TotalSamples() const { return Total().samples; }
  sim::SimTime TotalCpuTime() const { return Total().cpu_time; }

  // The held paths in preorder, children in FunctionId order.
  std::vector<PathId> Preorder(const PathTree& paths) const;

  // Sums another CCT over the same path tree into this one.
  void MergeFrom(const CallingContextTree& other);

  // Renders an indented text tree: "name  samples=N cpu=Xms (Y%)".
  // Paths below min_fraction of total inclusive time are elided.
  std::string Render(const PathTree& paths, const FunctionRegistry& registry,
                     double min_fraction = 0.0) const;

 private:
  std::vector<PathCounters> counters_;
  size_t held_ = 0;
};

}  // namespace whodunit::callpath

#endif  // SRC_CALLPATH_CCT_H_
