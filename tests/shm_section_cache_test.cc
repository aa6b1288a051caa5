// Flow-summary cache (src/shm/section_cache.h): warm executions must
// hit, replays must be bit-identical to full emulation — machine
// state, dictionary state, flow events, and simulated-cost accounting
// — and every invalidation rule must actually invalidate.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/shm/flow_detector.h"
#include "src/shm/guest_code.h"
#include "src/shm/section_cache.h"
#include "src/vm/interpreter.h"
#include "src/vm/program_builder.h"

namespace whodunit::shm {
namespace {

constexpr uint64_t kLock = 7;
constexpr uint64_t kQueue = 0x1000;
constexpr uint64_t kCounterAddr = 0x5000;

SectionCache::Config NoShadow() {
  SectionCache::Config cfg;
  cfg.shadow_verify = false;
  return cfg;
}

// Two universes run the same schedule: one through the cache, one
// through plain emulation. They must stay indistinguishable.
struct Universe {
  explicit Universe(FlowDetector::Config dcfg = {})
      : detector(dcfg, [this](vm::ThreadId t) { return ctxts[t]; }) {
    detector.set_flow_callback([this](const FlowEvent& ev) { flows.push_back(ev); });
  }
  vm::Interpreter interp;
  vm::Memory mem;
  std::map<vm::ThreadId, vm::CpuState> cpus;
  std::map<vm::ThreadId, CtxtId> ctxts;
  FlowDetector detector;
  std::vector<FlowEvent> flows;
};

void ExpectSame(Universe& a, Universe& b) {
  ASSERT_EQ(a.cpus.size(), b.cpus.size());
  for (auto& [t, cpu] : a.cpus) {
    ASSERT_TRUE(b.cpus.count(t));
    EXPECT_EQ(cpu.regs, b.cpus[t].regs) << "thread " << t;
    EXPECT_EQ(cpu.cmp, b.cpus[t].cmp) << "thread " << t;
  }
  EXPECT_EQ(a.mem.Snapshot(), b.mem.Snapshot());
  EXPECT_TRUE(a.detector.DeepEquals(b.detector));
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i], b.flows[i]) << "flow " << i;
  }
}

TEST(SectionCacheTest, CounterHitsAfterWarmup) {
  vm::Program cnt = CounterIncrement(kLock);
  Universe u;
  SectionCache cache(NoShadow());
  vm::CpuState& cpu = u.cpus[0];
  cpu.regs[0] = kCounterAddr;
  for (int i = 0; i < 10; ++i) {
    cache.Run(u.interp, cnt, 0, cpu, u.mem, &u.detector);
  }
  // Run 1 translates (no recording), run 2 records, runs 3..10 replay:
  // the counter's IncM is affine, so its walking value never pins.
  EXPECT_EQ(cache.hits(), 8u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(u.mem.Read(kCounterAddr), 10u);
}

TEST(SectionCacheTest, QueueSteadyStateHitsAndMatchesPlainEmulation) {
  vm::Program push = ApQueuePush(kLock);
  vm::Program pop = ApQueuePop(kLock);
  Universe cached, plain;
  SectionCache cache(NoShadow());
  CtxtId next_ctxt = 1;
  for (int i = 0; i < 50; ++i) {
    const CtxtId c = next_ctxt++;
    for (Universe* u : {&cached, &plain}) {
      u->ctxts[0] = c;
      vm::CpuState& producer = u->cpus[0];
      producer.regs[0] = kQueue;
      producer.regs[1] = 100 + static_cast<uint64_t>(i);
      producer.regs[2] = 200 + static_cast<uint64_t>(i);
      vm::CpuState& consumer = u->cpus[3];
      consumer.regs[0] = kQueue;
      consumer.regs[5] = 0x2000;
      consumer.regs[6] = 0x2008;
    }
    const vm::ExecResult c1 = cache.Run(cached.interp, push, 0, cached.cpus[0], cached.mem,
                                        &cached.detector);
    const vm::ExecResult p1 =
        plain.interp.ExecuteWith(push, 0, plain.cpus[0], plain.mem, &plain.detector);
    const vm::ExecResult c2 = cache.Run(cached.interp, pop, 3, cached.cpus[3], cached.mem,
                                        &cached.detector);
    const vm::ExecResult p2 =
        plain.interp.ExecuteWith(pop, 3, plain.cpus[3], plain.mem, &plain.detector);
    // Simulated cost accounting must survive replay bit-for-bit.
    EXPECT_EQ(c1.guest_cycles, p1.guest_cycles);
    EXPECT_EQ(c1.instructions, p1.instructions);
    EXPECT_EQ(c2.guest_cycles, p2.guest_cycles);
    EXPECT_EQ(c2.instructions, p2.instructions);
  }
  ExpectSame(cached, plain);
  // The queue depth oscillates between 0 and 1, so both sections reach
  // a steady state well inside the variant ring.
  EXPECT_GT(cache.hits(), 80u);
  EXPECT_EQ(cached.flows.size(), 50u);
}

TEST(SectionCacheTest, DepthChangeRecordsNewVariant) {
  vm::Program push = ApQueuePush(kLock);
  Universe u;
  SectionCache cache(NoShadow());
  vm::CpuState& cpu = u.cpus[0];
  // Pushes at strictly increasing depth: nelts feeds the element
  // address computation, so every depth is a distinct fingerprint.
  for (int i = 0; i < 6; ++i) {
    cpu.regs[0] = kQueue;
    cpu.regs[1] = 1;
    cpu.regs[2] = 2;
    cache.Run(u.interp, push, 0, cpu, u.mem, &u.detector);
  }
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 6u);
  EXPECT_EQ(u.mem.Read(kQueue), 6u);
  // Revisiting an already-recorded depth hits.
  u.mem.Write(kQueue, 3);
  cache.Run(u.interp, push, 0, cpu, u.mem, &u.detector);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(SectionCacheTest, ChurnGuardDemotesWalkingSection) {
  vm::Program push = ApQueuePush(kLock);
  Universe cached, plain;
  SectionCache::Config cfg = NoShadow();
  cfg.max_variants = 8;
  SectionCache cache(cfg);
  // A queue that only ever grows pins a fresh depth on every push:
  // each run re-records and the full ring evicts, and recording costs
  // several plain emulations. After the ring has evicted
  // kChurnDemoteRecords summaries with no replays to show for them,
  // the (program, thread) ring must fall back to plain emulation for
  // good. 48 runs = 1 translate + 8 ring fills + 32 evictions + tail.
  for (int i = 0; i < 48; ++i) {
    for (Universe* u : {&cached, &plain}) {
      vm::CpuState& cpu = u->cpus[0];
      cpu.regs[0] = kQueue;
      cpu.regs[1] = 100 + static_cast<uint64_t>(i);
      cpu.regs[2] = 200 + static_cast<uint64_t>(i);
    }
    cache.Run(cached.interp, push, 0, cached.cpus[0], cached.mem, &cached.detector);
    plain.interp.ExecuteWith(push, 0, plain.cpus[0], plain.mem, &plain.detector);
  }
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 48u);
  EXPECT_EQ(cache.variants(), 0u);  // demoted: summaries dropped
  ExpectSame(cached, plain);
  // Demotion is sticky — later runs stop recording entirely.
  cached.cpus[0].regs[1] = 999;
  plain.cpus[0].regs[1] = 999;
  cache.Run(cached.interp, push, 0, cached.cpus[0], cached.mem, &cached.detector);
  plain.interp.ExecuteWith(push, 0, plain.cpus[0], plain.mem, &plain.detector);
  EXPECT_EQ(cache.variants(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  ExpectSame(cached, plain);
}

TEST(SectionCacheTest, PerThreadRingsSurviveMultiThreadThrash) {
  // Two server threads walk the same 8 row indices of a shared table.
  // With rings keyed per (program, thread) each thread's 8 variants
  // fit its own ring even at max_variants = 8; a shared ring would
  // thrash — 16 live fingerprints in 8 slots, near-zero hits.
  constexpr uint64_t kTableBase = 0x9000;
  vm::Program read = TableRead(kLock);
  Universe cached, plain;
  SectionCache::Config cfg = NoShadow();
  cfg.max_variants = 8;
  SectionCache cache(cfg);
  for (Universe* u : {&cached, &plain}) {
    for (uint64_t row = 0; row < 8; ++row) {
      u->mem.Write(kTableBase + 8 * row, 1000 + row);
    }
  }
  for (int round = 0; round < 10; ++round) {
    for (vm::ThreadId t : {vm::ThreadId{0}, vm::ThreadId{1}}) {
      for (uint64_t row = 0; row < 8; ++row) {
        for (Universe* u : {&cached, &plain}) {
          vm::CpuState& cpu = u->cpus[t];
          cpu.regs[0] = kTableBase;
          cpu.regs[1] = row;
        }
        const vm::ExecResult c =
            cache.Run(cached.interp, read, t, cached.cpus[t], cached.mem, &cached.detector);
        const vm::ExecResult p =
            plain.interp.ExecuteWith(read, t, plain.cpus[t], plain.mem, &plain.detector);
        EXPECT_EQ(c.guest_cycles, p.guest_cycles);
        EXPECT_EQ(c.instructions, p.instructions);
      }
    }
  }
  ExpectSame(cached, plain);
  // 160 runs: 1 translation, 16 recordings, everything else replays.
  EXPECT_GT(cache.hits(), 120u);
  EXPECT_EQ(cache.variants(), 16u);
}

TEST(SectionCacheTest, WalkingRowIndexReplaysWithSymbolicPayload) {
  // TableRead's fingerprint pins the walking row index (it feeds the
  // address computation) but keeps the row payload symbolic: the value
  // flows through a MOV chain into r3 and into the section's final
  // compare. Revisiting a recorded index must replay even after the
  // payload changed, and the replay must deliver the *live* payload —
  // both in r3 and in the comparison flags.
  constexpr uint64_t kTableBase = 0x9000;
  vm::Program read = TableRead(kLock);
  Universe u;
  SectionCache cache(NoShadow());
  vm::CpuState& cpu = u.cpus[0];
  for (uint64_t row = 0; row < 16; ++row) {
    u.mem.Write(kTableBase + 8 * row, 500 + row);
  }
  // Pass 1 warms: one translation plus one recording per index.
  // Pass 2 replays every index.
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t row = 0; row < 16; ++row) {
      cpu.regs[0] = kTableBase;
      cpu.regs[1] = row;
      cache.Run(u.interp, read, 0, cpu, u.mem, &u.detector);
      EXPECT_EQ(cpu.regs[3], 500 + row);
    }
  }
  EXPECT_EQ(cache.hits(), 15u);  // pass 2, minus the re-record after translation
  // Overwrite every payload; the fingerprints still match (the value
  // was never pinned) and replay reproduces the new value and its sign.
  for (uint64_t row = 0; row < 16; ++row) {
    u.mem.Write(kTableBase + 8 * row, row == 0 ? 0 : 9000 + row);
  }
  const uint64_t hits_before = cache.hits();
  for (uint64_t row = 0; row < 16; ++row) {
    cpu.regs[0] = kTableBase;
    cpu.regs[1] = row;
    cache.Run(u.interp, read, 0, cpu, u.mem, &u.detector);
    EXPECT_EQ(cpu.regs[3], row == 0 ? 0u : 9000 + row);
    EXPECT_EQ(cpu.cmp, row == 0 ? 0 : 1);  // sign(payload - 0), recomputed live
  }
  EXPECT_EQ(cache.hits(), hits_before + 16);
}

TEST(SectionCacheTest, GuestCodeChangeMisses) {
  Universe u;
  SectionCache cache(NoShadow());
  vm::CpuState& cpu = u.cpus[0];
  cpu.regs[0] = kCounterAddr;
  vm::Program cnt = CounterIncrement(kLock);
  for (int i = 0; i < 4; ++i) {
    cache.Run(u.interp, cnt, 0, cpu, u.mem, &u.detector);
  }
  EXPECT_EQ(cache.hits(), 2u);
  // A rebuilt section gets a fresh program id from the builder, so the
  // cache cannot confuse it with the old body.
  vm::Program rebuilt = CounterIncrement(kLock);
  EXPECT_NE(rebuilt.id, cnt.id);
  cache.Run(u.interp, rebuilt, 0, cpu, u.mem, &u.detector);
  EXPECT_EQ(cache.hits(), 2u);
  // Explicit invalidation forces a re-record as well.
  cache.Invalidate(cnt.id);
  cache.Run(u.interp, cnt, 0, cpu, u.mem, &u.detector);
  EXPECT_EQ(cache.hits(), 2u);  // first run after Invalidate re-records
  cache.Run(u.interp, cnt, 0, cpu, u.mem, &u.detector);
  EXPECT_EQ(cache.hits(), 3u);
}

TEST(SectionCacheTest, TranslationFlushForcesColdRun) {
  Universe u;
  SectionCache cache(NoShadow());
  vm::CpuState& cpu = u.cpus[0];
  cpu.regs[0] = kCounterAddr;
  vm::Program cnt = CounterIncrement(kLock);
  for (int i = 0; i < 4; ++i) {
    cache.Run(u.interp, cnt, 0, cpu, u.mem, &u.detector);
  }
  EXPECT_EQ(cache.hits(), 2u);
  u.interp.FlushTranslationCache();
  // The summary must not mask the re-translation cost: the next run
  // pays it for real and reports translated=true.
  const vm::ExecResult res = cache.Run(u.interp, cnt, 0, cpu, u.mem, &u.detector);
  EXPECT_TRUE(res.translated);
  EXPECT_EQ(cache.hits(), 2u);
  // With the translation warm again, the old summary is valid again.
  cache.Run(u.interp, cnt, 0, cpu, u.mem, &u.detector);
  EXPECT_EQ(cache.hits(), 3u);
}

TEST(SectionCacheTest, WindowConfigMismatchNeverReplays) {
  // A summary recorded under one consume-window configuration must not
  // replay into a detector configured differently.
  vm::Program pop = ApQueuePop(kLock);
  vm::Program push = ApQueuePush(kLock);
  SectionCache cache(NoShadow());
  FlowDetector::Config wide;
  wide.post_window = 128;
  FlowDetector::Config narrow;
  narrow.post_window = 2;
  Universe u_wide(wide), u_narrow(narrow);
  for (Universe* u : {&u_wide, &u_narrow}) {
    for (int i = 0; i < 4; ++i) {
      vm::CpuState& cpu = u->cpus[0];
      cpu.regs[0] = kQueue;
      cpu.regs[1] = 9;
      cpu.regs[2] = 9;
      cache.Run(u->interp, push, 0, cpu, u->mem, &u->detector);
      vm::CpuState& con = u->cpus[3];
      con.regs[0] = kQueue;
      con.regs[5] = 0x2000;
      con.regs[6] = 0x2008;
      cache.Run(u->interp, pop, 3, con, u->mem, &u->detector);
    }
  }
  // Both universes share one cache and one program id, but the narrow
  // universe has its own interpreter (untranslated at first) and its
  // own dictionary; every replay it did must have been validated
  // against its own window config. Flows still come out right:
  EXPECT_EQ(u_wide.detector.flows_detected(), 4u);
  EXPECT_EQ(u_narrow.detector.flows_detected(), 4u);
}

TEST(SectionCacheTest, DemotionEquivalence) {
  // The allocator pattern: thread 0 both frees and allocates, so the
  // lock demotes mid-run. Cached and plain universes must agree on the
  // demotion point and everything after it.
  vm::Program mem_free = MemFree(kLock);
  vm::Program mem_alloc = MemAlloc(kLock);
  Universe cached, plain;
  SectionCache cache(NoShadow());
  for (int i = 0; i < 12; ++i) {
    const uint64_t block = 0x7000 + 0x100 * static_cast<uint64_t>(i % 3);
    for (Universe* u : {&cached, &plain}) {
      u->ctxts[0] = static_cast<CtxtId>(i + 1);
      vm::CpuState& cpu = u->cpus[0];
      cpu.regs[0] = 0x6000;
      cpu.regs[1] = block;
    }
    cache.Run(cached.interp, mem_free, 0, cached.cpus[0], cached.mem, &cached.detector);
    plain.interp.ExecuteWith(mem_free, 0, plain.cpus[0], plain.mem, &plain.detector);
    for (Universe* u : {&cached, &plain}) {
      u->cpus[0].regs[0] = 0x6000;
    }
    cache.Run(cached.interp, mem_alloc, 0, cached.cpus[0], cached.mem, &cached.detector);
    plain.interp.ExecuteWith(mem_alloc, 0, plain.cpus[0], plain.mem, &plain.detector);
  }
  ExpectSame(cached, plain);
  EXPECT_TRUE(cached.detector.IsDemoted(kLock));
}

TEST(SectionCacheTest, ShadowVerifyPassesOnHits) {
  SectionCache::Config cfg;
  cfg.shadow_verify = true;
  SectionCache cache(cfg);
  Universe u;
  vm::CpuState& cpu = u.cpus[0];
  cpu.regs[0] = kCounterAddr;
  vm::Program cnt = CounterIncrement(kLock);
  for (int i = 0; i < 10; ++i) {
    cache.Run(u.interp, cnt, 0, cpu, u.mem, &u.detector);
  }
  // Every hit re-ran the full emulation and compared; reaching here
  // means zero divergences. State is the authoritative run's.
  EXPECT_EQ(cache.hits(), 8u);
  EXPECT_EQ(u.mem.Read(kCounterAddr), 10u);
}

TEST(SectionCacheTest, ArchOnlyRunsCacheWithoutDetector) {
  // det == nullptr: pure architectural memoization (the Table 3
  // "emulate cached" regime without observation).
  SectionCache cache(NoShadow());
  vm::Interpreter interp;
  vm::Memory mem;
  vm::CpuState cpu;
  cpu.regs[0] = kQueue;
  vm::Program push = ApQueuePush(kLock);
  vm::Program pop = ApQueuePop(kLock);
  for (int i = 0; i < 20; ++i) {
    cpu.regs[1] = 40 + static_cast<uint64_t>(i);
    cpu.regs[2] = 50 + static_cast<uint64_t>(i);
    cpu.regs[5] = 0x2000;
    cpu.regs[6] = 0x2008;
    cache.Run(interp, push, 0, cpu, mem, nullptr);
    cache.Run(interp, pop, 0, cpu, mem, nullptr);
    // The popped payload is symbolic (MOV chain), so changing it never
    // causes a miss, and the replay must still deliver the live value.
    EXPECT_EQ(cpu.regs[7], 40 + static_cast<uint64_t>(i));
    EXPECT_EQ(cpu.regs[8], 50 + static_cast<uint64_t>(i));
  }
  EXPECT_GT(cache.hits(), 30u);
  EXPECT_EQ(mem.Read(kQueue), 0u);
}

TEST(SectionCacheTest, UncacheableSectionStaysCorrect) {
  // A section that ends still holding its lock is never summarized;
  // the cache must keep running it faithfully.
  vm::ProgramBuilder b("locked-tail");
  b.Lock(kLock);
  b.IncM(0, 0);
  b.Halt();
  vm::Program prog = b.Build();
  SectionCache cache(NoShadow());
  Universe u;
  vm::CpuState& cpu = u.cpus[0];
  cpu.regs[0] = kCounterAddr;
  for (int i = 0; i < 6; ++i) {
    cache.Run(u.interp, prog, 0, cpu, u.mem, &u.detector);
  }
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(u.mem.Read(kCounterAddr), 6u);
}

}  // namespace
}  // namespace whodunit::shm
