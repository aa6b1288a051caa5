// Interning invariants of the hash-consed context tree, and randomized
// equivalence against the legacy value API (transaction_context.h).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/context/context_tree.h"
#include "src/context/synopsis.h"
#include "src/context/transaction_context.h"
#include "src/util/rng.h"

namespace whodunit::context {
namespace {

Element E(ElementKind kind, uint32_t id) { return Element{kind, id}; }

Element RandomElement(util::Rng& rng, uint32_t universe) {
  return Element{static_cast<ElementKind>(rng.NextBelow(3)),
                 static_cast<uint32_t>(rng.NextBelow(universe))};
}

TEST(ContextTreeTest, EmptyContextProperties) {
  ContextTree tree;
  EXPECT_TRUE(tree.Empty(kEmptyContext));
  EXPECT_EQ(tree.SizeOf(kEmptyContext), 0u);
  EXPECT_EQ(tree.HashOf(kEmptyContext), TransactionContext{}.Hash());
  EXPECT_TRUE(tree.Materialize(kEmptyContext).empty());
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

TEST(ContextTreeTest, AppendMatchesLegacyOnFixedLoop) {
  // An A-B-A-B ping-pong: §4.1 pruning must cut the loop exactly like
  // the value API does.
  ContextTree tree;
  TransactionContext legacy;
  NodeId node = kEmptyContext;
  const Element a = E(ElementKind::kHandler, 1);
  const Element b = E(ElementKind::kHandler, 2);
  for (int i = 0; i < 6; ++i) {
    const Element& e = (i % 2 == 0) ? a : b;
    legacy.Append(e);
    node = tree.Append(node, e);
    EXPECT_EQ(tree.Materialize(node), legacy) << "iteration " << i;
  }
}

TEST(ContextTreeTest, HashMatchesLegacyBitForBit) {
  ContextTree tree;
  TransactionContext legacy;
  NodeId node = kEmptyContext;
  for (uint32_t i = 0; i < 20; ++i) {
    const Element e = E(static_cast<ElementKind>(i % 3), i % 5);
    legacy.Append(e);
    node = tree.Append(node, e);
    EXPECT_EQ(tree.HashOf(node), legacy.Hash());
    EXPECT_EQ(tree.SizeOf(node), legacy.size());
  }
}

TEST(ContextTreeTest, InternMaterializeRoundTrip) {
  ContextTree tree;
  const TransactionContext ctxt({E(ElementKind::kStage, 3), E(ElementKind::kCallPath, 9),
                                 E(ElementKind::kStage, 4)});
  const NodeId node = tree.Intern(ctxt);
  EXPECT_EQ(tree.Materialize(node), ctxt);
  EXPECT_EQ(tree.Intern(ctxt), node);  // idempotent
  EXPECT_EQ(tree.HashOf(node), ctxt.Hash());
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

class ContextTreeEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContextTreeEquivalenceTest, RandomizedAppendMatchesLegacy) {
  // Drive the same random append stream through the legacy value API
  // and the tree; materialized sequence, size, and hash must agree at
  // every step, with and without pruning.
  for (const bool prune : {true, false}) {
    util::Rng rng(GetParam());
    ContextTree tree;
    TransactionContext legacy;
    NodeId node = kEmptyContext;
    // Unpruned contexts grow without bound; keep the stream short
    // enough that the ancestor walks stay cheap.
    const int steps = prune ? 400 : 60;
    for (int i = 0; i < steps; ++i) {
      const Element e = RandomElement(rng, 8);
      legacy.Append(e, prune);
      node = tree.Append(node, e, prune);
      ASSERT_EQ(tree.Materialize(node), legacy) << "step " << i << " prune=" << prune;
      ASSERT_EQ(tree.HashOf(node), legacy.Hash());
      ASSERT_EQ(tree.SizeOf(node), legacy.size());
    }
  }
}

TEST_P(ContextTreeEquivalenceTest, RandomizedConcatMatchesLegacy) {
  // Concat applies pruning at the seam exactly like the legacy
  // TransactionContext::Concat on randomized prefix/suffix pairs.
  util::Rng rng(GetParam() ^ 0xc0ffee);
  ContextTree tree;
  for (int round = 0; round < 200; ++round) {
    TransactionContext prefix, suffix;
    const int plen = static_cast<int>(rng.NextBelow(6));
    const int slen = static_cast<int>(rng.NextBelow(6));
    for (int i = 0; i < plen; ++i) {
      prefix.Append(RandomElement(rng, 5));
    }
    for (int i = 0; i < slen; ++i) {
      suffix.Append(RandomElement(rng, 5));
    }
    const TransactionContext expect = TransactionContext::Concat(prefix, suffix);
    const NodeId got = tree.Concat(tree.Intern(prefix), tree.Intern(suffix));
    ASSERT_EQ(tree.Materialize(got), expect)
        << "round " << round << " prefix=" << prefix.size() << " suffix=" << suffix.size();
    ASSERT_EQ(tree.HashOf(got), expect.Hash());
  }
}

TEST_P(ContextTreeEquivalenceTest, RandomizedHasPrefixMatchesLegacy) {
  util::Rng rng(GetParam() ^ 0xfeed);
  ContextTree tree;
  for (int round = 0; round < 200; ++round) {
    TransactionContext a, b;
    const int alen = static_cast<int>(rng.NextBelow(5));
    const int blen = static_cast<int>(rng.NextBelow(5));
    for (int i = 0; i < alen; ++i) {
      a.Append(RandomElement(rng, 3));
    }
    for (int i = 0; i < blen; ++i) {
      b.Append(RandomElement(rng, 3));
    }
    ASSERT_EQ(tree.HasPrefix(tree.Intern(a), tree.Intern(b)), a.HasPrefix(b))
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContextTreeEquivalenceTest,
                         ::testing::Values(1u, 42u, 0xdeadbeefu, 777u));

TEST(ContextTreeTest, GlobalTreeIsSharedAndStable) {
  ContextTree& g1 = GlobalContextTree();
  ContextTree& g2 = GlobalContextTree();
  EXPECT_EQ(&g1, &g2);
  const NodeId n = g1.Append(kEmptyContext, E(ElementKind::kHandler, 12345));
  EXPECT_EQ(g2.Append(kEmptyContext, E(ElementKind::kHandler, 12345)), n);
}

TEST(ContextTreeTest, SynopsisDictionaryNodeAndValuePathsAgree) {
  // The legacy value Intern and the NodeId hot path must assign the
  // same 4-byte part id to the same element sequence.
  SynopsisDictionary dict;
  const TransactionContext ctxt({E(ElementKind::kHandler, 5), E(ElementKind::kStage, 6)});
  const uint32_t via_value = dict.Intern(ctxt);
  const uint32_t via_node = dict.Intern(GlobalContextTree().Intern(ctxt));
  EXPECT_EQ(via_value, via_node);
  EXPECT_EQ(dict.Lookup(via_value), ctxt);
  EXPECT_EQ(dict.LookupNode(via_value), GlobalContextTree().Intern(ctxt));
}

TEST(ContextTreeTest, ToStringMatchesLegacy) {
  const auto namer = [](ElementKind kind, uint32_t id) {
    std::string name(kind == ElementKind::kHandler ? "H" : "x");
    name += std::to_string(id);
    return name;
  };
  ContextTree tree;
  const TransactionContext ctxt({E(ElementKind::kHandler, 1), E(ElementKind::kHandler, 2)});
  EXPECT_EQ(tree.ToString(tree.Intern(ctxt), namer), ctxt.ToString(namer));
}

}  // namespace
}  // namespace whodunit::context
