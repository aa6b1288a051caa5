// Tests for the conventional (gprof-style) report, and the key
// contrast with the transactional profile: context loss.
#include "src/callpath/gprof_report.h"

#include <gtest/gtest.h>

namespace whodunit::callpath {
namespace {

TEST(GprofReportTest, AggregatesSelfAndChildren) {
  FunctionRegistry reg;
  CallingContextTree cct;
  auto main_fn = reg.Intern("main");
  auto work_fn = reg.Intern("work");
  NodeIndex m = cct.PathNode({main_fn});
  NodeIndex w = cct.PathNode({main_fn, work_fn});
  cct.AddCpuTime(m, 100);
  cct.AddCpuTime(w, 900);
  cct.AddCall(w);
  cct.AddCall(w);

  auto entries = BuildGprofEntries(cct);
  ASSERT_EQ(entries.size(), 2u);
  // Sorted by self time: work first.
  EXPECT_EQ(entries[0].function, work_fn);
  EXPECT_EQ(entries[0].self, 900);
  EXPECT_EQ(entries[0].children, 0);
  EXPECT_EQ(entries[0].calls, 2u);
  EXPECT_EQ(entries[1].function, main_fn);
  EXPECT_EQ(entries[1].self, 100);
  EXPECT_EQ(entries[1].children, 900);
}

TEST(GprofReportTest, ArcsLinkCallersAndCallees) {
  FunctionRegistry reg;
  CallingContextTree cct;
  auto a = reg.Intern("a");
  auto b = reg.Intern("b");
  auto sort_fn = reg.Intern("sort");
  cct.AddCpuTime(cct.PathNode({a, sort_fn}), 300);
  cct.AddCpuTime(cct.PathNode({b, sort_fn}), 100);

  auto entries = BuildGprofEntries(cct);
  const GprofEntry* sort_entry = nullptr;
  for (const auto& e : entries) {
    if (e.function == sort_fn) {
      sort_entry = &e;
    }
  }
  ASSERT_NE(sort_entry, nullptr);
  ASSERT_EQ(sort_entry->callers.size(), 2u);
  EXPECT_EQ(sort_entry->callers[0].caller, a);  // heavier arc first
  EXPECT_EQ(sort_entry->callers[0].callee_inclusive, 300);
  EXPECT_EQ(sort_entry->callers[1].caller, b);
}

TEST(GprofReportTest, ContextSensitivityIsLost) {
  // The paper's point: gprof merges all contexts. The same `sort`
  // reached from two transaction types becomes ONE entry with one
  // total — the per-transaction split only exists in the CCT-per-
  // context transactional profile.
  FunctionRegistry reg;
  CallingContextTree merged;
  auto svc = reg.Intern("svc");
  auto sort_fn = reg.Intern("sort");
  // Two "transactions" worth of data merged into one tree, as gprof
  // sees the world.
  merged.AddCpuTime(merged.PathNode({svc, sort_fn}), 300);
  merged.AddCpuTime(merged.PathNode({svc, sort_fn}), 100);

  auto entries = BuildGprofEntries(merged);
  int sort_entries = 0;
  for (const auto& e : entries) {
    if (e.function == sort_fn) {
      ++sort_entries;
      EXPECT_EQ(e.self, 400);  // one undifferentiated total
    }
  }
  EXPECT_EQ(sort_entries, 1);
}

TEST(GprofReportTest, RenderedReportHasBothSections) {
  FunctionRegistry reg;
  CallingContextTree cct;
  auto main_fn = reg.Intern("main");
  auto sort_fn = reg.Intern("db_sort");
  NodeIndex n = cct.PathNode({main_fn, sort_fn});
  cct.AddCpuTime(n, sim::Millis(42));
  cct.AddCall(n);

  std::string text = RenderGprofReport(cct, reg);
  EXPECT_NE(text.find("Flat profile:"), std::string::npos);
  EXPECT_NE(text.find("Call graph:"), std::string::npos);
  EXPECT_NE(text.find("db_sort"), std::string::npos);
  EXPECT_NE(text.find("<- main"), std::string::npos);
  EXPECT_NE(text.find("-> db_sort"), std::string::npos);
}

TEST(GprofReportTest, EmptyTreeRendersCleanly) {
  FunctionRegistry reg;
  CallingContextTree cct;
  std::string text = RenderGprofReport(cct, reg);
  EXPECT_NE(text.find("Flat profile:"), std::string::npos);
}

}  // namespace
}  // namespace whodunit::callpath
