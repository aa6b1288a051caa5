#include "src/context/synopsis.h"

#include <gtest/gtest.h>

#include "src/context/context_tree.h"

namespace whodunit::context {
namespace {

TEST(SynopsisTest, WireBytesMatchesPaperEncoding) {
  // 4 bytes per part plus one '#' between parts (paper §7.4: "Whodunit
  // uses 4 bytes for each transaction context synopsis").
  EXPECT_EQ(Synopsis{}.WireBytes(), 0u);
  EXPECT_EQ((Synopsis{{1}}).WireBytes(), 4u);
  EXPECT_EQ((Synopsis{{1, 2}}).WireBytes(), 9u);
  EXPECT_EQ((Synopsis{{1, 2, 3}}).WireBytes(), 14u);
}

TEST(SynopsisTest, PrefixRecognition) {
  Synopsis alpha{{12}};
  Synopsis composite = alpha.Extend(Synopsis{{7}});
  EXPECT_EQ(composite, (Synopsis{{12, 7}}));
  EXPECT_TRUE(composite.HasPrefix(alpha));
  EXPECT_FALSE(composite.HasPrefix(Synopsis{{7}}));
  EXPECT_FALSE(alpha.HasPrefix(composite));
}

TEST(SynopsisTest, ToStringUsesDelimiter) {
  EXPECT_EQ((Synopsis{{12, 7}}).ToString(), "12#7");
  EXPECT_EQ((Synopsis{{3}}).ToString(), "3");
}

TEST(SynopsisDictionaryTest, InternsAndLooksUp) {
  ContextTree tree;
  SynopsisDictionary dict;
  const NodeId a = tree.Append(kEmptyContext, Element{ElementKind::kHandler, 1});
  const NodeId b = tree.Append(a, Element{ElementKind::kHandler, 2});
  uint32_t ia = dict.Intern(a);
  uint32_t ib = dict.Intern(b);
  EXPECT_NE(ia, ib);
  EXPECT_EQ(dict.Intern(a), ia);
  EXPECT_EQ(dict.Lookup(ia), a);
  EXPECT_EQ(dict.Lookup(ib), b);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_TRUE(dict.Contains(ia));
  EXPECT_FALSE(dict.Contains(99));
}

}  // namespace
}  // namespace whodunit::context
