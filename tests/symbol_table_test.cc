// SymbolTable (src/util/symbol_table.h), the one name interner: the
// interning contract, Find, copies, the single-writer /
// lock-free-reader concurrency claim, MergeFrom's remap stability over
// live-pipeline and function names, and a golden proving the
// name-sorted exports are byte-identical to what the pre-interning
// string-keyed pipeline produced.
#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/callpath/function_registry.h"
#include "src/obs/live/aggregator.h"
#include "src/obs/live/txn_event.h"
#include "src/obs/metrics.h"
#include "src/util/symbol_table.h"

namespace whodunit::util {
namespace {

using obs::MetricsRegistry;
using obs::ScopedMetricsRegistry;
using obs::live::LiveAggregator;
using obs::live::TxnEvent;
using obs::live::WaitState;

TEST(SymbolTableTest, EmptyStringIsIdZero) {
  SymbolTable table;
  EXPECT_EQ(table.size(), 1u);  // "" pre-interned at construction
  EXPECT_EQ(table.Intern(""), 0u);
  EXPECT_EQ(table.Name(0), "");
  EXPECT_EQ(table.Find(""), 0u);
}

TEST(SymbolTableTest, IdsAssignedInFirstInternOrderAndStable) {
  SymbolTable table;
  const SymId squid = table.Intern("squid");
  const SymId tomcat = table.Intern("tomcat");
  const SymId mysql = table.Intern("mysql");
  EXPECT_EQ(squid, 1u);
  EXPECT_EQ(tomcat, 2u);
  EXPECT_EQ(mysql, 3u);
  // Re-interning returns the same id; ids never change.
  EXPECT_EQ(table.Intern("tomcat"), tomcat);
  EXPECT_EQ(table.Intern("squid"), squid);
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.Name(squid), "squid");
  EXPECT_EQ(table.Name(tomcat), "tomcat");
  EXPECT_EQ(table.Name(mysql), "mysql");
  // Find resolves without interning; a miss leaves the table alone.
  EXPECT_EQ(table.Find("tomcat"), tomcat);
  EXPECT_EQ(table.Find("apache"), SymbolTable::kNotFound);
  EXPECT_EQ(table.size(), 4u);
}

TEST(SymbolTableTest, OutOfRangeIdsResolveToEmpty) {
  SymbolTable table;
  table.Intern("only");
  EXPECT_EQ(table.Name(99), "");
  EXPECT_EQ(table.Name(static_cast<SymId>(-1)), "");
}

TEST(SymbolTableTest, InterningCrossesChunkBoundaries) {
  SymbolTable table;
  std::vector<SymId> ids;
  // Chunks hold 16, 32, 64, ... names: this spans the first six.
  const size_t n = 1000;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(table.Intern("fn_" + std::to_string(i)));
    EXPECT_EQ(ids.back(), i + 1);
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(table.Name(ids[i]), "fn_" + std::to_string(i));
    EXPECT_EQ(table.Find("fn_" + std::to_string(i)), ids[i]);
  }
}

TEST(SymbolTableTest, CopyPreservesIds) {
  SymbolTable table;
  for (size_t i = 0; i < 100; ++i) {
    table.Intern("fn_" + std::to_string(i));
  }
  SymbolTable copy(table);
  SymbolTable assigned;
  assigned.Intern("stale");
  assigned = table;
  for (const SymbolTable* t : {&copy, &assigned}) {
    ASSERT_EQ(t->size(), table.size());
    for (SymId id = 0; id < table.size(); ++id) {
      EXPECT_EQ(t->Name(id), table.Name(id)) << "id " << id;
    }
    EXPECT_EQ(t->Find("stale"), SymbolTable::kNotFound);
  }
  // The copy is independent: interning into it leaves the source alone.
  EXPECT_EQ(copy.Intern("new"), table.size());
  EXPECT_EQ(table.Find("new"), SymbolTable::kNotFound);
}

TEST(SymbolTableTest, ScopedTableRedirectsSymsAndRestores) {
  SymbolTable& before = Syms();
  SymbolTable local;
  {
    ScopedSymbolTable scope(local);
    EXPECT_EQ(&Syms(), &local);
    SymbolTable inner;
    {
      ScopedSymbolTable nested(inner);
      EXPECT_EQ(&Syms(), &inner);
    }
    EXPECT_EQ(&Syms(), &local);
  }
  EXPECT_EQ(&Syms(), &before);
}

// The concurrency contract: one writer interning, any number of
// readers resolving lock-free. A reader that observes id < size() must
// be able to resolve Name(id) to the exact final string. Run under the
// TSan preset this also proves the release/acquire pairing is real.
TEST(SymbolTableTest, ConcurrentReadersSeeConsistentNames) {
  SymbolTable table;
  constexpr size_t kNames = 2000;  // crosses seven chunks
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> resolved{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const size_t size = table.size();
        for (SymId id = 1; id < size; ++id) {
          const std::string& name = table.Name(id);
          // Names encode their own id, so a torn or stale read is
          // detectable without synchronizing with the writer.
          if (name != "sym_" + std::to_string(id)) {
            ADD_FAILURE() << "id " << id << " resolved to \"" << name << "\"";
            return;
          }
          ++local;
        }
      }
      resolved.fetch_add(local, std::memory_order_relaxed);
    });
  }

  for (SymId id = 1; id <= kNames; ++id) {
    ASSERT_EQ(table.Intern("sym_" + std::to_string(id)), id);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(table.size(), kNames + 1);
}

TEST(SymbolTableTest, MergeFromRemapsIdsToSameNames) {
  // Live-pipeline stage names, and function names as a shard
  // deployment's FunctionRegistry holds them.
  for (const auto& names : std::vector<std::vector<std::string>>{
           {"squid", "tomcat", "mysql", "apache"},
           {"ap_queue_push", "ap_queue_pop", "apr_socket_accept", "http_parse"}}) {
    callpath::FunctionRegistry mine;
    mine.Intern(names[0]);
    mine.Intern(names[1]);

    SymbolTable other;
    other.Intern(names[2]);  // new to mine
    other.Intern(names[1]);  // already interned here, different id there
    other.Intern(names[3]);  // new to mine

    const std::vector<SymId> remap = mine.MergeFrom(other);
    ASSERT_EQ(remap.size(), other.size());
    // Every id of `other` resolves to the same name through the remap.
    for (SymId id = 0; id < other.size(); ++id) {
      EXPECT_EQ(mine.Name(remap[id]), other.Name(id)) << "other id " << id;
    }
    // Pre-existing ids on this side are untouched.
    EXPECT_EQ(remap[0], 0u);
    EXPECT_EQ(mine.Name(1), names[0]);
    EXPECT_EQ(mine.Name(2), names[1]);
    // Shared names fold onto the existing id; new names append in the
    // other table's id order (the deterministic shard-merge order).
    EXPECT_EQ(remap[other.Find(names[1])], 2u);
    EXPECT_EQ(mine.Name(3), names[2]);
    EXPECT_EQ(mine.Name(4), names[3]);
    EXPECT_EQ(mine.size(), 5u);
  }
}

TEST(SymbolTableTest, MergeFromIsIdempotent) {
  SymbolTable mine;
  SymbolTable other;
  other.Intern("a");
  other.Intern("b");
  const std::vector<SymId> first = mine.MergeFrom(other);
  const size_t size_after_first = mine.size();
  const std::vector<SymId> second = mine.MergeFrom(other);
  EXPECT_EQ(first, second);
  EXPECT_EQ(mine.size(), size_after_first);
}

// Byte-identity golden: the folded attribution export sorts by
// resolved name, so its bytes must not depend on intern order — this
// is the exact output the pre-interning string-keyed aggregator
// produced for the same events.
TEST(SymbolTableGoldenTest, AttrFoldedExportIsInternOrderInvariant) {
  const char* kGolden =
      "browse;squid;queue_wait 250\n"
      "checkout;db;lock_wait 500\n"
      "checkout;squid;service 1000\n";

  const auto fold = [](const std::vector<std::string_view>& intern_order) {
    MetricsRegistry reg;
    ScopedMetricsRegistry metrics_scope(reg);
    SymbolTable table;
    ScopedSymbolTable syms_scope(table);
    for (std::string_view name : intern_order) {
      table.Intern(name);
    }
    LiveAggregator agg;
    TxnEvent checkout;
    checkout.txn_id = 1;
    checkout.type = table.Intern("checkout");
    checkout.end_ns = 1500;
    checkout.attr.push_back({table.Intern("squid"), 0, WaitState::kService, 1000});
    checkout.attr.push_back({table.Intern("db"), 0, WaitState::kLockWait, 500});
    agg.Ingest(checkout);
    TxnEvent browse;
    browse.txn_id = 2;
    browse.type = table.Intern("browse");
    browse.end_ns = 250;
    browse.attr.push_back({table.Intern("squid"), 0, WaitState::kQueueWait, 250});
    agg.Ingest(browse);
    return agg.ExportAttrFolded();
  };

  EXPECT_EQ(fold({"checkout", "browse", "squid", "db"}), kGolden);
  EXPECT_EQ(fold({"db", "squid", "browse", "checkout"}), kGolden);
  EXPECT_EQ(fold({}), kGolden);  // first-use intern order
}

}  // namespace
}  // namespace whodunit::util
