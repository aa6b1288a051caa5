#include "src/callpath/cct.h"

#include <algorithm>
#include <sstream>

namespace whodunit::callpath {

PathTree::PathTree() {
  nodes_.push_back(Node{0, 0});  // root: synthetic "program" path
}

PathId PathTree::Child(PathId parent, FunctionId f) {
  bool existed = false;
  PathId& child = children_.FindOrInsert(uint64_t{parent} << 32 | f, &existed);
  if (!existed) {
    child = static_cast<PathId>(nodes_.size());
    nodes_.push_back(Node{parent, f});
  }
  return child;
}

std::vector<FunctionId> PathTree::PathTo(PathId p) const {
  std::vector<FunctionId> path;
  for (; p != root(); p = nodes_[p].parent) {
    path.push_back(nodes_[p].function);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

CallingContextTree::CallingContextTree() { Add(0, {}); }

void CallingContextTree::Hold(const PathTree& paths, PathId p) {
  for (; !holds(p); p = paths.parent(p)) {
    Add(p, {});
  }
}

std::vector<PathCounters> CallingContextTree::Inclusive(const PathTree& paths) const {
  std::vector<PathCounters> inclusive = counters_;
  for (PathId p = id_limit(); p-- > 1;) {
    inclusive[paths.parent(p)] += inclusive[p];
  }
  return inclusive;
}

PathCounters CallingContextTree::Total() const {
  PathCounters total;
  for (const PathCounters& c : counters_) {
    total += c;
  }
  return total;
}

std::vector<PathId> CallingContextTree::Preorder(const PathTree& paths) const {
  // Visiting children in FunctionId order is the lexicographic order
  // of the paths' function sequences (each led by the root's 0).
  std::vector<std::vector<FunctionId>> key(counters_.size());
  std::vector<PathId> held;
  for (PathId p = 0; p < id_limit(); ++p) {
    if (counters_[p].held) {
      key[p] = key[paths.parent(p)];
      key[p].push_back(paths.function(p));
      held.push_back(p);
    }
  }
  std::sort(held.begin(), held.end(), [&key](PathId a, PathId b) { return key[a] < key[b]; });
  return held;
}

void CallingContextTree::MergeFrom(const CallingContextTree& other) {
  for (PathId p = 0; p < other.id_limit(); ++p) {
    if (other.counters_[p].held) {
      Add(p, other.counters_[p]);
    }
  }
}

std::string CallingContextTree::Render(const PathTree& paths, const FunctionRegistry& registry,
                                       double min_fraction) const {
  const std::vector<PathCounters> inclusive = Inclusive(paths);
  const auto total = static_cast<double>(inclusive[paths.root()].cpu_time);
  // An elided path hides its whole subtree; parents come first.
  std::vector<bool> shown(counters_.size(), true);
  std::ostringstream out;
  for (PathId p : Preorder(paths)) {
    const auto cpu = static_cast<double>(inclusive[p].cpu_time);
    shown[p] = shown[paths.parent(p)] && !(total > 0 && cpu / total < min_fraction);
    if (!shown[p] || p == paths.root()) {
      continue;
    }
    out << std::string(2 * (paths.PathTo(p).size() - 1), ' ') << registry.Name(paths.function(p))
        << "  samples=" << inclusive[p].samples << " cpu=" << sim::ToMillis(inclusive[p].cpu_time)
        << "ms";
    if (total > 0) {
      out << " (" << 100.0 * cpu / total << "%)";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace whodunit::callpath
