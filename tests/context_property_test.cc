// Property-based tests for transaction contexts and synopses.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "src/context/context_tree.h"
#include "src/context/synopsis.h"
#include "src/util/rng.h"
#include "tests/context_testing.h"

namespace whodunit::context {
namespace {

Element RandomElement(util::Rng& rng, uint32_t universe) {
  return Element{static_cast<ElementKind>(rng.NextBelow(3)),
                 static_cast<uint32_t>(rng.NextBelow(universe))};
}

// Synopses keep up to four parts inline in the 24 bytes a
// std::vector<uint32_t> took.
static_assert(sizeof(Synopsis) == 24);

// A random synopsis of 0..8 parts (so half of them spill past the
// inline four) and the same parts in a std::vector reference.
std::pair<Synopsis, std::vector<uint32_t>> RandomSynopsis(util::Rng& rng) {
  Synopsis syn;
  std::vector<uint32_t> ref;
  const auto len = rng.NextBelow(9);
  for (uint64_t i = 0; i < len; ++i) {
    const auto part = static_cast<uint32_t>(rng.NextBelow(4));  // small: many ties
    syn.parts.push_back(part);
    ref.push_back(part);
  }
  return {syn, ref};
}

std::vector<uint32_t> PartsOf(const Synopsis& syn) {
  return std::vector<uint32_t>(syn.parts.begin(), syn.parts.end());
}

// FNV-1a over the parts' little-endian bytes: Synopsis::Hash's
// definition, applied to the reference vector.
uint64_t ReferenceHash(const std::vector<uint32_t>& parts) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint32_t p : parts) {
    for (int i = 0; i < 4; ++i) {
      h ^= (p >> (i * 8)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

class ContextPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContextPropertyTest, PrunedContextsNeverRepeatAnElement) {
  // The §4.1 pruning rule implies: after any append stream, a pruned
  // context contains each element at most once (a repeat would have
  // closed a loop and been cut).
  util::Rng rng(GetParam());
  ContextTree tree;
  NodeId ctxt = kEmptyContext;
  for (int i = 0; i < 500; ++i) {
    ctxt = tree.Append(ctxt, RandomElement(rng, 10));
    std::set<uint64_t> seen;
    for (const Element& e : ElementsOf(tree, ctxt)) {
      EXPECT_TRUE(seen.insert(e.Packed()).second) << "duplicate element after pruning";
    }
  }
}

TEST_P(ContextPropertyTest, PrunedSizeBoundedByUniverse) {
  util::Rng rng(GetParam() ^ 1);
  ContextTree tree;
  NodeId ctxt = kEmptyContext;
  constexpr uint32_t kUniverse = 7;
  for (int i = 0; i < 1000; ++i) {
    ctxt = tree.Append(ctxt, RandomElement(rng, kUniverse));
    // 3 kinds x 7 ids = 21 possible elements.
    EXPECT_LE(tree.SizeOf(ctxt), 3u * kUniverse);
  }
}

TEST_P(ContextPropertyTest, AppendIsDeterministicAcrossTrees) {
  // Two trees fed the same stream assign the same NodeIds: a
  // deployment's ids depend only on its own append history.
  util::Rng r1(GetParam() ^ 2), r2(GetParam() ^ 2);
  ContextTree ta, tb;
  NodeId a = kEmptyContext, b = kEmptyContext;
  for (int i = 0; i < 300; ++i) {
    a = ta.Append(a, RandomElement(r1, 12));
    b = tb.Append(b, RandomElement(r2, 12));
    ASSERT_EQ(a, b);
  }
  EXPECT_EQ(ta.HashOf(a), tb.HashOf(b));
  EXPECT_EQ(ta.node_count(), tb.node_count());
}

TEST_P(ContextPropertyTest, AppendExistingLastElementIsIdempotent) {
  util::Rng rng(GetParam() ^ 3);
  ContextTree tree;
  NodeId ctxt = kEmptyContext;
  for (int i = 0; i < 50; ++i) {
    ctxt = tree.Append(ctxt, RandomElement(rng, 8));
  }
  if (tree.Empty(ctxt)) {
    return;
  }
  EXPECT_EQ(tree.Append(ctxt, tree.LastElement(ctxt)), ctxt);
}

TEST_P(ContextPropertyTest, ConcatWithEmptyIsIdentity) {
  util::Rng rng(GetParam() ^ 4);
  ContextTree tree;
  NodeId ctxt = kEmptyContext;
  for (int i = 0; i < 30; ++i) {
    ctxt = tree.Append(ctxt, RandomElement(rng, 8));
  }
  EXPECT_EQ(tree.Concat(ctxt, kEmptyContext), ctxt);
  EXPECT_EQ(tree.Concat(kEmptyContext, ctxt), ctxt);
}

TEST_P(ContextPropertyTest, PrefixPartialOrder) {
  util::Rng rng(GetParam() ^ 5);
  ContextTree tree;
  NodeId ctxt = kEmptyContext;
  for (int i = 0; i < 40; ++i) {
    ctxt = tree.Append(ctxt, RandomElement(rng, 20));
  }
  // Every ancestor is a HasPrefix-prefix, and the relation is
  // reflexive.
  EXPECT_TRUE(tree.HasPrefix(ctxt, ctxt));
  for (NodeId walk = ctxt; !tree.Empty(walk); walk = tree.ParentOf(walk)) {
    EXPECT_TRUE(tree.HasPrefix(ctxt, tree.ParentOf(walk)));
    EXPECT_FALSE(tree.HasPrefix(tree.ParentOf(walk), walk));
  }
}

TEST_P(ContextPropertyTest, SynopsisExtendPreservesPrefix) {
  util::Rng rng(GetParam() ^ 6);
  Synopsis syn;
  for (int i = 0; i < 10; ++i) {
    Synopsis longer = syn.Extend(Synopsis{{static_cast<uint32_t>(rng.NextBelow(100))}});
    EXPECT_TRUE(longer.HasPrefix(syn));
    EXPECT_EQ(longer.parts.size(), syn.parts.size() + 1);
    // Wire bytes grow by 4 (+1 for the '#' once non-empty).
    EXPECT_EQ(longer.WireBytes(), syn.WireBytes() + (syn.empty() ? 4 : 5));
    syn = longer;
  }
}

TEST_P(ContextPropertyTest, DictionaryInternIsStable) {
  util::Rng rng(GetParam() ^ 7);
  ContextTree tree;
  SynopsisDictionary dict;
  std::vector<NodeId> ctxts;
  std::vector<uint32_t> ids;
  for (int i = 0; i < 100; ++i) {
    NodeId c = kEmptyContext;
    const int len = 1 + static_cast<int>(rng.NextBelow(5));
    for (int j = 0; j < len; ++j) {
      c = tree.Append(c, RandomElement(rng, 6));
    }
    ctxts.push_back(c);
    ids.push_back(dict.Intern(c));
  }
  // Re-interning yields the same ids; lookup inverts intern.
  for (size_t i = 0; i < ctxts.size(); ++i) {
    EXPECT_EQ(dict.Intern(ctxts[i]), ids[i]);
    EXPECT_EQ(dict.Lookup(ids[i]), ctxts[i]);
  }
}

TEST_P(ContextPropertyTest, SynopsisOrderEqualityAndHashMatchVector) {
  util::Rng rng(GetParam() ^ 8);
  for (int i = 0; i < 2000; ++i) {
    const auto [a, ref_a] = RandomSynopsis(rng);
    const auto [b, ref_b] = RandomSynopsis(rng);
    ASSERT_EQ(PartsOf(a), ref_a);
    EXPECT_EQ(a.parts < b.parts, ref_a < ref_b);
    EXPECT_EQ(b.parts < a.parts, ref_b < ref_a);
    EXPECT_EQ(a == b, ref_a == ref_b);
    EXPECT_EQ(a.Hash(), ReferenceHash(ref_a));
    if (a == b) {
      EXPECT_EQ(a.Hash(), b.Hash());
    }
  }
}

TEST_P(ContextPropertyTest, SynopsisCopyMoveAndSelfAssignment) {
  util::Rng rng(GetParam() ^ 9);
  for (int i = 0; i < 500; ++i) {
    const auto [src, ref] = RandomSynopsis(rng);
    auto [target, target_ref] = RandomSynopsis(rng);

    Synopsis copy(src);
    EXPECT_EQ(PartsOf(copy), ref);
    target = src;
    EXPECT_EQ(PartsOf(target), ref);
    EXPECT_EQ(PartsOf(src), ref);

    Synopsis moved(std::move(copy));
    EXPECT_EQ(PartsOf(moved), ref);
    EXPECT_TRUE(copy.empty());  // a moved-from synopsis is empty
    auto [other, other_ref] = RandomSynopsis(rng);
    other = std::move(moved);
    EXPECT_EQ(PartsOf(other), ref);
    EXPECT_TRUE(moved.empty());

    // Self-assignment through an alias keeps the parts.
    Synopsis& alias = other;
    other = alias;
    EXPECT_EQ(PartsOf(other), ref);
    other = std::move(alias);
    EXPECT_EQ(PartsOf(other), ref);

    // A moved-from synopsis is reusable.
    copy.parts.push_back(7);
    EXPECT_EQ(PartsOf(copy), std::vector<uint32_t>{7});
  }
}

TEST_P(ContextPropertyTest, SynopsisGrowsPastInlinePartsAndBack) {
  util::Rng rng(GetParam() ^ 10);
  for (int round = 0; round < 3; ++round) {
    Synopsis syn;
    std::vector<uint32_t> ref;
    const int peak = 1 + static_cast<int>(rng.NextBelow(12));
    for (int i = 0; i < peak; ++i) {
      const auto part = static_cast<uint32_t>(rng.NextU64());
      syn.parts.push_back(part);
      ref.push_back(part);
      ASSERT_EQ(syn.parts.back(), part);
      ASSERT_EQ(PartsOf(syn), ref);
      ASSERT_EQ(syn.Extend(Synopsis{{1, 2}}).parts.size(), ref.size() + 2);
    }
    while (!ref.empty()) {
      syn.parts.pop_back();
      ref.pop_back();
      ASSERT_EQ(PartsOf(syn), ref);
      ASSERT_EQ(syn.WireBytes(), ref.empty() ? 0 : ref.size() * 5 - 1);
    }
    EXPECT_TRUE(syn.empty());
    EXPECT_EQ(syn, Synopsis{});
    syn.parts.push_back(3);
    EXPECT_EQ(syn, (Synopsis{{3}}));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContextPropertyTest, ::testing::Values(1, 7, 42, 1001, 9999));

}  // namespace
}  // namespace whodunit::context
