// Test helpers for transaction contexts: read a context-tree node back
// as its element sequence, and print elements in gtest failure output.
#ifndef TESTS_CONTEXT_TESTING_H_
#define TESTS_CONTEXT_TESTING_H_

#include <ostream>
#include <vector>

#include "src/context/context_tree.h"

namespace whodunit::context {

// The element sequence `ctxt` spells, root first, read off the tree's
// parent links.
inline std::vector<Element> ElementsOf(const ContextTree& tree, NodeId ctxt) {
  std::vector<Element> out(tree.SizeOf(ctxt));
  for (NodeId walk = ctxt; !tree.Empty(walk); walk = tree.ParentOf(walk)) {
    out[tree.SizeOf(walk) - 1] = tree.LastElement(walk);
  }
  return out;
}

inline void PrintTo(const Element& e, std::ostream* os) {
  static constexpr char kKinds[] = {'P', 'H', 'S'};
  *os << kKinds[static_cast<int>(e.kind)] << ":" << e.id;
}

}  // namespace whodunit::context

#endif  // TESTS_CONTEXT_TESTING_H_
