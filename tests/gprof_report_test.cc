// Tests for the conventional (gprof-style) report, and the key
// contrast with the transactional profile: context loss.
#include "src/callpath/gprof_report.h"

#include <gtest/gtest.h>

namespace whodunit::callpath {
namespace {

// Adds c at `path` in cct, holding the path first.
void Charge(PathTree& paths, CallingContextTree& cct, const std::vector<FunctionId>& path,
            const PathCounters& c) {
  PathId p = paths.root();
  for (FunctionId f : path) {
    p = paths.Child(p, f);
  }
  cct.Hold(paths, p);
  cct.Add(p, c);
}

TEST(GprofReportTest, AggregatesSelfAndChildren) {
  FunctionRegistry reg;
  PathTree paths;
  CallingContextTree cct;
  auto main_fn = reg.Intern("main");
  auto work_fn = reg.Intern("work");
  Charge(paths, cct, {main_fn}, {.cpu_time = 100});
  Charge(paths, cct, {main_fn, work_fn}, {.cpu_time = 900, .calls = 2});

  auto entries = BuildGprofEntries(cct, paths);
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
  PathTree paths;
  CallingContextTree cct;
  auto a = reg.Intern("a");
  auto b = reg.Intern("b");
  auto sort_fn = reg.Intern("sort");
  Charge(paths, cct, {a, sort_fn}, {.cpu_time = 300});
  Charge(paths, cct, {b, sort_fn}, {.cpu_time = 100});

  auto entries = BuildGprofEntries(cct, paths);
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
  PathTree paths;
  CallingContextTree merged;
  auto svc = reg.Intern("svc");
  auto sort_fn = reg.Intern("sort");
  // Two "transactions" worth of data merged into one tree, as gprof
  // sees the world.
  Charge(paths, merged, {svc, sort_fn}, {.cpu_time = 300});
  Charge(paths, merged, {svc, sort_fn}, {.cpu_time = 100});

  auto entries = BuildGprofEntries(merged, paths);
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
  PathTree paths;
  CallingContextTree cct;
  auto main_fn = reg.Intern("main");
  auto sort_fn = reg.Intern("db_sort");
  Charge(paths, cct, {main_fn, sort_fn}, {.cpu_time = sim::Millis(42), .calls = 1});

  std::string text = RenderGprofReport(cct, paths, reg);
  EXPECT_NE(text.find("Flat profile:"), std::string::npos);
  EXPECT_NE(text.find("Call graph:"), std::string::npos);
  EXPECT_NE(text.find("db_sort"), std::string::npos);
  EXPECT_NE(text.find("<- main"), std::string::npos);
  EXPECT_NE(text.find("-> db_sort"), std::string::npos);
}

TEST(GprofReportTest, EmptyTreeRendersCleanly) {
  FunctionRegistry reg;
  PathTree paths;
  CallingContextTree cct;
  std::string text = RenderGprofReport(cct, paths, reg);
  EXPECT_NE(text.find("Flat profile:"), std::string::npos);
}

}  // namespace
}  // namespace whodunit::callpath
