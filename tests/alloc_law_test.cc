// Steady-state allocation law: the request path of every perfbench
// workload (perfbench/harness.cc) makes no heap allocations.
//
// Each workload runs through its app's public entry point at simulated
// lengths L and 2L with the same seed. A run is deterministic, so the
// two share their first L seconds: setup, warm-up and teardown cost the
// same in both, and the difference in operator-new calls divided by the
// difference in completed transactions is what one more transaction
// costs. The law bounds that ratio at 0.5 per transaction — a single
// per-request std::vector, std::function or message copy with a heap
// member breaks it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/apps/bookstore/bookstore.h"
#include "src/apps/minihttpd/minihttpd.h"
#include "src/apps/miniproxy/miniproxy.h"
#include "src/apps/sedaserver/sedaserver.h"
#include "src/util/arena.h"

// Counts every global operator new in this binary, aligned forms
// included (util::RingQueue allocates with std::align_val_t). The
// deletes are replaced too, to keep new/delete pairs matched under the
// sanitizers.
namespace {
std::atomic<uint64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t n) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(al);
  return std::aligned_alloc(align, (n + align - 1) / align * align);
}

void* Checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return Checked(CountedAlloc(n)); }
void* operator new[](std::size_t n) { return Checked(CountedAlloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return Checked(CountedAlignedAlloc(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return Checked(CountedAlignedAlloc(n, al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace whodunit::apps {
namespace {

constexpr double kMaxAllocsPerTxn = 0.5;

struct RunCost {
  uint64_t allocs = 0;
  uint64_t txns = 0;
};

// Runs `run(length)` and counts the operator-new calls it makes; `run`
// returns the transactions it completed. The run starts from an empty
// thread arena pool, so the blocks it draws while its pool fills cost
// the same in every run instead of only in the first.
template <typename Run>
RunCost Measure(const Run& run, sim::SimTime length) {
  util::ArenaPool::ThisThread().Trim();
  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  const uint64_t txns = run(length);
  return {g_heap_allocs.load(std::memory_order_relaxed) - before, txns};
}

// Allocations per transaction beyond the first `length` simulated ns.
template <typename Run>
double ExtraAllocsPerTxn(const Run& run, sim::SimTime length) {
  const RunCost one = Measure(run, length);
  const RunCost two = Measure(run, 2 * length);
  EXPECT_GT(two.txns, one.txns);
  const double extra = static_cast<double>(two.allocs) - static_cast<double>(one.allocs);
  const double value = extra / static_cast<double>(two.txns - one.txns);
  std::printf("  allocs %llu -> %llu, txns %llu -> %llu: %.4f allocs/txn\n",
              static_cast<unsigned long long>(one.allocs),
              static_cast<unsigned long long>(two.allocs),
              static_cast<unsigned long long>(one.txns),
              static_cast<unsigned long long>(two.txns), value);
  return value;
}

template <typename Run>
void ExpectAllocationFree(const Run& run, sim::SimTime length) {
  EXPECT_LE(ExtraAllocsPerTxn(run, length), kMaxAllocsPerTxn);
}

// The perfbench configurations (perfbench/harness.cc), whodunit arm,
// seed 1; only the simulated length varies.

TEST(AllocLawTest, TpcwClosed) {
  const auto run = [](sim::SimTime length) {
    BookstoreOptions o;
    o.clients = 400;
    o.servlet_caching = true;
    o.item_granularity = db::LockGranularity::kTableLocks;
    o.duration = length;
    o.warmup = sim::Seconds(60);
    o.seed = 1;
    return RunBookstore(o).interactions;
  };
  ExpectAllocationFree(run, sim::Seconds(300));
}

TEST(AllocLawTest, TpcwOpenSampled) {
  constexpr int kClients = 100000;
  const auto run = [](sim::SimTime length) {
    BookstoreOptions o;
    o.clients = kClients;
    o.arrivals.kind = workload::ArrivalKind::kPoisson;
    o.item_granularity = db::LockGranularity::kRowLocks;
    o.servlet_caching = true;
    o.proxy_cores = o.tomcat_cores = o.db_cores = kClients / 25;
    o.proxy_workers = o.tomcat_workers = o.db_workers = kClients / 16;
    o.duration = length;
    o.warmup = sim::Millis(400);
    o.sample_rate = 0.01;
    o.live = true;
    o.live_attribution = true;
    o.seed = 1;
    return RunBookstore(o).interactions;
  };
  ExpectAllocationFree(run, sim::Seconds(1));
}

TEST(AllocLawTest, HttpdChurn) {
  const auto run = [](sim::SimTime length) {
    MinihttpdOptions o;
    o.workers = 8;
    o.clients = 64;
    o.duration = length;
    o.seed = 1;
    return RunMinihttpd(o).requests;
  };
  ExpectAllocationFree(run, sim::Seconds(5));
}

TEST(AllocLawTest, ProxySeda) {
  const auto run = [](sim::SimTime length) {
    MiniproxyOptions po;
    po.duration = length;
    po.seed = 1;
    SedaServerOptions so;
    so.duration = length;
    so.seed = 1;
    return RunMiniproxy(po).requests + RunSedaServer(so).requests;
  };
  ExpectAllocationFree(run, sim::Seconds(10));
}

}  // namespace
}  // namespace whodunit::apps
