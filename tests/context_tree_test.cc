// Interning invariants of the hash-consed context tree, and randomized
// equivalence against a reference model: §4.1 pruning on a plain
// element vector, sharing no code with ContextTree.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/context/context_tree.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"
#include "tests/context_testing.h"

namespace whodunit::context {
namespace {

Element E(ElementKind kind, uint32_t id) { return Element{kind, id}; }

Element RandomElement(util::Rng& rng, uint32_t universe) {
  return Element{static_cast<ElementKind>(rng.NextBelow(3)),
                 static_cast<uint32_t>(rng.NextBelow(universe))};
}

// The reference context: the element sequence itself. Append cuts the
// suffix after the latest prior occurrence of the new element (§4.1);
// the hash is FNV-1a over the little-endian bytes of Element::Packed().
struct RefContext {
  std::vector<Element> elems;

  void Append(Element e, bool prune = true) {
    if (prune) {
      for (size_t i = elems.size(); i-- > 0;) {
        if (elems[i] == e) {
          elems.resize(i + 1);
          return;
        }
      }
    }
    elems.push_back(e);
  }

  static RefContext Concat(const RefContext& prefix, const RefContext& suffix) {
    RefContext out = prefix;
    for (const Element& e : suffix.elems) {
      out.Append(e);
    }
    return out;
  }

  bool HasPrefix(const RefContext& p) const {
    return p.elems.size() <= elems.size() &&
           std::equal(p.elems.begin(), p.elems.end(), elems.begin());
  }

  uint64_t Hash() const {
    uint64_t h = 0xcbf29ce484222325ull;
    for (const Element& e : elems) {
      const uint64_t v = e.Packed();
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ull;
      }
    }
    return h;
  }
};

// Builds the reference's exact sequence in the tree (no re-pruning:
// a reference built with pruning never repeats an element).
NodeId Build(ContextTree& tree, const RefContext& ref) {
  NodeId node = kEmptyContext;
  for (const Element& e : ref.elems) {
    node = tree.Append(node, e, /*prune=*/false);
  }
  return node;
}

TEST(ContextTreeTest, EmptyContextProperties) {
  ContextTree tree;
  EXPECT_TRUE(tree.Empty(kEmptyContext));
  EXPECT_EQ(tree.SizeOf(kEmptyContext), 0u);
  EXPECT_EQ(tree.HashOf(kEmptyContext), RefContext{}.Hash());
  EXPECT_TRUE(ElementsOf(tree, kEmptyContext).empty());
  EXPECT_EQ(tree.node_count(), 1u);  // the root
}

TEST(ContextTreeTest, SameSequenceSameNodeId) {
  // Hash-consing is canonical: appending the same element sequence
  // twice yields the same 32-bit id, so equality is an integer compare.
  ContextTree tree;
  NodeId a = kEmptyContext;
  NodeId b = kEmptyContext;
  const std::vector<Element> seq = {E(ElementKind::kHandler, 1), E(ElementKind::kStage, 2),
                                    E(ElementKind::kCallPath, 7), E(ElementKind::kHandler, 1)};
  for (const Element& e : seq) {
    a = tree.Append(a, e);
  }
  const size_t nodes_after_first = tree.node_count();
  for (const Element& e : seq) {
    b = tree.Append(b, e);
  }
  EXPECT_EQ(a, b);
  // The second pass allocated nothing: every node was consed.
  EXPECT_EQ(tree.node_count(), nodes_after_first);
}

TEST(ContextTreeTest, LoopOfLengthTwoPruned) {
  // Persistent connection: [accept, read, write, read] prunes to
  // [accept, read] — the paper's exact example — and further
  // iterations of the loop keep it stable.
  ContextTree tree;
  const Element accept = E(ElementKind::kHandler, 0);
  const Element read = E(ElementKind::kHandler, 1);
  const Element write = E(ElementKind::kHandler, 2);
  const NodeId accept_read = tree.Append(tree.Append(kEmptyContext, accept), read);
  NodeId node = tree.Append(tree.Append(accept_read, write), read);
  EXPECT_EQ(node, accept_read);
  node = tree.Append(tree.Append(node, write), read);
  EXPECT_EQ(node, accept_read);
  EXPECT_EQ(ElementsOf(tree, node), (std::vector<Element>{accept, read}));
}

TEST(ContextTreeTest, ConsecutiveDuplicatesCollapse) {
  // An event handler re-scheduled to finish a partial read: [A, B, B]
  // is [A, B]. Handler 1 and stage 1 are different elements.
  ContextTree tree;
  const NodeId ab = tree.Append(tree.Append(kEmptyContext, E(ElementKind::kHandler, 1)),
                                E(ElementKind::kHandler, 2));
  EXPECT_EQ(tree.Append(ab, E(ElementKind::kHandler, 2)), ab);
  EXPECT_EQ(tree.SizeOf(tree.Append(ab, E(ElementKind::kStage, 2))), 3u);
}

TEST(ContextTreeTest, AppendMatchesReferenceOnFixedLoop) {
  // An A-B-A-B ping-pong: §4.1 pruning must cut the loop exactly like
  // the reference does.
  ContextTree tree;
  RefContext ref;
  NodeId node = kEmptyContext;
  const Element a = E(ElementKind::kHandler, 1);
  const Element b = E(ElementKind::kHandler, 2);
  for (int i = 0; i < 6; ++i) {
    const Element& e = (i % 2 == 0) ? a : b;
    ref.Append(e);
    node = tree.Append(node, e);
    EXPECT_EQ(ElementsOf(tree, node), ref.elems) << "iteration " << i;
  }
}

TEST(ContextTreeTest, HashMatchesReferenceBitForBit) {
  ContextTree tree;
  RefContext ref;
  NodeId node = kEmptyContext;
  for (uint32_t i = 0; i < 20; ++i) {
    const Element e = E(static_cast<ElementKind>(i % 3), i % 5);
    ref.Append(e);
    node = tree.Append(node, e);
    EXPECT_EQ(tree.HashOf(node), ref.Hash());
    EXPECT_EQ(tree.SizeOf(node), ref.elems.size());
  }
}

TEST(ContextTreeTest, HashDiscriminatesOrderAndKind) {
  ContextTree tree;
  const Element h1 = E(ElementKind::kHandler, 1);
  const Element h2 = E(ElementKind::kHandler, 2);
  const NodeId h1h2 = tree.Append(tree.Append(kEmptyContext, h1), h2);
  const NodeId h2h1 = tree.Append(tree.Append(kEmptyContext, h2), h1);
  EXPECT_NE(tree.HashOf(h1h2), tree.HashOf(h2h1));
  EXPECT_NE(tree.HashOf(tree.Append(kEmptyContext, h1)),
            tree.HashOf(tree.Append(kEmptyContext, E(ElementKind::kStage, 1))));
}

TEST(ContextTreeTest, ParentLinksSpellTheSequence) {
  ContextTree tree;
  RefContext ref;
  ref.elems = {E(ElementKind::kStage, 3), E(ElementKind::kCallPath, 9),
               E(ElementKind::kStage, 4)};
  const NodeId node = Build(tree, ref);
  EXPECT_EQ(ElementsOf(tree, node), ref.elems);
  EXPECT_EQ(Build(tree, ref), node);  // idempotent
  EXPECT_EQ(tree.HashOf(node), ref.Hash());
  EXPECT_EQ(tree.LastElement(node), (E(ElementKind::kStage, 4)));
}

TEST(ContextTreeTest, HasPrefixIsAncestry) {
  ContextTree tree;
  NodeId a = tree.Append(kEmptyContext, E(ElementKind::kHandler, 1));
  NodeId ab = tree.Append(a, E(ElementKind::kHandler, 2));
  NodeId abc = tree.Append(ab, E(ElementKind::kHandler, 3));
  NodeId other = tree.Append(kEmptyContext, E(ElementKind::kHandler, 9));

  EXPECT_TRUE(tree.HasPrefix(abc, kEmptyContext));
  EXPECT_TRUE(tree.HasPrefix(abc, a));
  EXPECT_TRUE(tree.HasPrefix(abc, ab));
  EXPECT_TRUE(tree.HasPrefix(abc, abc));  // not necessarily proper
  EXPECT_FALSE(tree.HasPrefix(ab, abc));  // longer can't be a prefix
  EXPECT_FALSE(tree.HasPrefix(abc, other));
  EXPECT_EQ(tree.ParentOf(abc), ab);
}

TEST(ContextTreeTest, UnprunedAppendKeepsFullHistory) {
  ContextTree tree;
  NodeId node = kEmptyContext;
  for (uint32_t id : {1u, 2u, 1u}) {
    node = tree.Append(node, E(ElementKind::kHandler, id), /*prune=*/false);
  }
  EXPECT_EQ(tree.SizeOf(node), 3u);
}

TEST(ContextTreeTest, NodeGaugeSumsAcrossTrees) {
  // Each tree adds its own nodes (the root included) to the registry's
  // context.tree_nodes, so a registry hosting several deployments
  // reports their sum.
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(registry);
  ContextTree a;
  ContextTree b;
  a.Append(a.Append(kEmptyContext, E(ElementKind::kHandler, 1)), E(ElementKind::kHandler, 2));
  b.Append(kEmptyContext, E(ElementKind::kStage, 1));
  EXPECT_EQ(a.node_count(), 3u);
  EXPECT_EQ(b.node_count(), 2u);
  EXPECT_EQ(registry.GetGauge("context.tree_nodes").Value(), 5);
}

class ContextTreeEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContextTreeEquivalenceTest, RandomizedAppendMatchesReference) {
  // Drive the same random append stream through the reference and the
  // tree; element sequence, size, and hash must agree at every step,
  // with and without pruning.
  for (const bool prune : {true, false}) {
    util::Rng rng(GetParam());
    ContextTree tree;
    RefContext ref;
    NodeId node = kEmptyContext;
    // Unpruned contexts grow without bound; keep the stream short
    // enough that the ancestor walks stay cheap.
    const int steps = prune ? 400 : 60;
    for (int i = 0; i < steps; ++i) {
      const Element e = RandomElement(rng, 8);
      ref.Append(e, prune);
      node = tree.Append(node, e, prune);
      ASSERT_EQ(ElementsOf(tree, node), ref.elems) << "step " << i << " prune=" << prune;
      ASSERT_EQ(tree.HashOf(node), ref.Hash());
      ASSERT_EQ(tree.SizeOf(node), ref.elems.size());
    }
  }
}

TEST_P(ContextTreeEquivalenceTest, RandomizedConcatMatchesReference) {
  // Concat applies pruning at the seam exactly like the reference on
  // randomized prefix/suffix pairs.
  util::Rng rng(GetParam() ^ 0xc0ffee);
  ContextTree tree;
  for (int round = 0; round < 200; ++round) {
    RefContext prefix, suffix;
    const int plen = static_cast<int>(rng.NextBelow(6));
    const int slen = static_cast<int>(rng.NextBelow(6));
    for (int i = 0; i < plen; ++i) {
      prefix.Append(RandomElement(rng, 5));
    }
    for (int i = 0; i < slen; ++i) {
      suffix.Append(RandomElement(rng, 5));
    }
    const RefContext expect = RefContext::Concat(prefix, suffix);
    const NodeId got = tree.Concat(Build(tree, prefix), Build(tree, suffix));
    ASSERT_EQ(ElementsOf(tree, got), expect.elems)
        << "round " << round << " prefix=" << prefix.elems.size()
        << " suffix=" << suffix.elems.size();
    ASSERT_EQ(tree.HashOf(got), expect.Hash());
  }
}

TEST_P(ContextTreeEquivalenceTest, RandomizedHasPrefixMatchesReference) {
  util::Rng rng(GetParam() ^ 0xfeed);
  ContextTree tree;
  for (int round = 0; round < 200; ++round) {
    RefContext a, b;
    const int alen = static_cast<int>(rng.NextBelow(5));
    const int blen = static_cast<int>(rng.NextBelow(5));
    for (int i = 0; i < alen; ++i) {
      a.Append(RandomElement(rng, 3));
    }
    for (int i = 0; i < blen; ++i) {
      b.Append(RandomElement(rng, 3));
    }
    ASSERT_EQ(tree.HasPrefix(Build(tree, a), Build(tree, b)), a.HasPrefix(b))
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContextTreeEquivalenceTest,
                         ::testing::Values(1u, 42u, 0xdeadbeefu, 777u));

TEST(ContextTreeTest, ToStringMatchesReference) {
  const auto namer = [](ElementKind kind, uint32_t id) {
    std::string name(kind == ElementKind::kHandler ? "H" : "x");
    name += std::to_string(id);
    return name;
  };
  ContextTree tree;
  const NodeId node = tree.Append(tree.Append(kEmptyContext, E(ElementKind::kHandler, 1)),
                                  E(ElementKind::kStage, 2));
  EXPECT_EQ(tree.ToString(node, namer), "[H1|x2]");
  EXPECT_EQ(tree.ToString(kEmptyContext, namer), "[]");
}

}  // namespace
}  // namespace whodunit::context
