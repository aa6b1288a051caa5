// Property fuzz for the flow-detection algorithm over the Apache
// queue: for ANY interleaving of pushes and pops by random threads,
// every consumed element's flow must carry exactly the context its
// producer had at push time (LIFO matching for the array queue), and
// no spurious flows may appear.
//
// Plus a differential fuzz for the flow-summary cache: random guest
// programs, random lock interleavings, and random consume-window
// sizes run through two universes — one via shm::SectionCache, one
// via plain emulation — which must stay bit-identical in machine
// state, dictionary state, contexts, and flow events.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/shm/flow_detector.h"
#include "src/shm/guest_code.h"
#include "src/shm/section_cache.h"
#include "src/util/rng.h"
#include "src/vm/interpreter.h"
#include "src/vm/program_builder.h"

namespace whodunit::shm {
namespace {

constexpr uint64_t kLock = 3;
constexpr uint64_t kQueue = 0x1000;

class ShmFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShmFuzzTest, EveryPopCarriesItsPushersContext) {
  util::Rng rng(GetParam());
  std::map<vm::ThreadId, CtxtId> ctxts;
  FlowDetector detector([&ctxts](vm::ThreadId t) { return ctxts[t]; });
  std::vector<FlowEvent> flows;
  detector.set_flow_callback([&flows](const FlowEvent& ev) { flows.push_back(ev); });

  vm::Interpreter interp;
  vm::Memory mem;
  std::map<vm::ThreadId, vm::CpuState> cpus;
  vm::Program push = ApQueuePush(kLock);
  vm::Program pop = ApQueuePop(kLock);

  // Model the queue as the LIFO stack it is; remember the producing
  // thread and context per element.
  struct Elem {
    vm::ThreadId producer;
    CtxtId ctxt;
    uint64_t value;
  };
  std::vector<Elem> model;
  CtxtId next_ctxt = 1;
  uint64_t next_value = 100;
  size_t expected_flows = 0;

  // §3.1's assumption: threads have predefined roles — producers
  // (0-2, Apache's listener side) or consumers (3-5, workers) of this
  // resource, never both. (A thread on both sides is the allocator
  // pattern, demoted by design — tested elsewhere.)
  for (int op = 0; op < 400; ++op) {
    if (model.empty() || rng.NextBernoulli(0.55)) {
      // Push with a fresh context.
      const auto t = static_cast<vm::ThreadId>(rng.NextBelow(3));
      ctxts[t] = next_ctxt++;
      vm::CpuState& cpu = cpus[t];
      cpu.regs[0] = kQueue;
      cpu.regs[1] = next_value;
      cpu.regs[2] = next_value + 1;
      interp.ExecuteWith(push, t, cpu, mem, &detector);
      model.push_back(Elem{t, ctxts[t], next_value});
      next_value += 2;
    } else {
      const auto t = static_cast<vm::ThreadId>(3 + rng.NextBelow(3));
      const Elem expected = model.back();
      model.pop_back();
      vm::CpuState& cpu = cpus[t];
      cpu.regs[0] = kQueue;
      cpu.regs[5] = 0x2000 + t * 64;
      cpu.regs[6] = 0x2008 + t * 64;
      interp.ExecuteWith(pop, t, cpu, mem, &detector);
      // Functional correctness of the queue itself.
      ASSERT_EQ(cpu.regs[7], expected.value);
      ++expected_flows;
      // The newest flow must blame the right producer and context.
      ASSERT_FALSE(flows.empty());
      const FlowEvent& ev = flows.back();
      EXPECT_EQ(ev.producer, expected.producer);
      EXPECT_EQ(ev.consumer, t);
      EXPECT_EQ(ev.ctxt, expected.ctxt);
      EXPECT_EQ(ev.lock_id, kLock);
    }
  }
  // Exactly one flow per pop: no spurious detections, none missed.
  EXPECT_EQ(flows.size(), expected_flows);
  // With disjoint roles, the resource is never demoted.
  EXPECT_FALSE(detector.IsDemoted(kLock));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShmFuzzTest,
                         ::testing::Values(3, 17, 23, 59, 71, 101, 997));

// ---------------------------------------------------------------------------
// Differential fuzz: SectionCache vs full emulation.

// A random critical section: Lock-first, a mix of MOV chains, affine
// updates, arithmetic, compares and forward branches over a small
// shared region, then Unlock, then a couple of post-CS reads so the
// consume window has something to look at. Only forward branches, so
// every program terminates.
vm::Program RandomSection(util::Rng& rng, uint64_t lock_id, int index) {
  vm::ProgramBuilder b("fuzz-section-" + std::to_string(index));
  b.Lock(lock_id);
  const int body = 3 + static_cast<int>(rng.NextBelow(8));
  for (int i = 0; i < body; ++i) {
    const auto reg = [&] { return static_cast<uint8_t>(1 + rng.NextBelow(4)); };
    const auto disp = [&] { return static_cast<int64_t>(rng.NextBelow(6)) * 8; };
    switch (rng.NextBelow(10)) {
      case 0:
        b.MovRI(reg(), static_cast<int64_t>(rng.NextBelow(1000)));
        break;
      case 1:
        b.MovRR(reg(), reg());
        break;
      case 2:
        b.MovRM(reg(), 0, disp());
        break;
      case 3:
        b.MovMR(0, disp(), reg());
        break;
      case 4:
        b.MovMM(0, disp(), 0, disp());
        break;
      case 5:
        b.AddRI(reg(), static_cast<int64_t>(rng.NextBelow(16)));
        break;
      case 6:
        b.IncM(0, disp());
        break;
      case 7:
        b.AddMI(0, disp(), static_cast<int64_t>(rng.NextBelow(32)));
        break;
      case 8:
        b.MulRI(reg(), static_cast<int64_t>(1 + rng.NextBelow(4)));
        break;
      default: {
        // Compare + forward branch over one random instruction.
        const int skip = b.DefineLabel();
        b.CmpRI(reg(), static_cast<int64_t>(rng.NextBelow(4)));
        b.Je(skip);
        b.IncM(0, disp());
        b.Bind(skip);
        break;
      }
    }
  }
  b.Unlock(lock_id);
  b.MovRM(6, 0, 0);
  b.MovRM(7, 0, 8);
  b.Halt();
  return b.Build();
}

class SectionCacheFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SectionCacheFuzzTest, ReplayIsIndistinguishableFromEmulation) {
  util::Rng rng(GetParam());

  FlowDetector::Config dcfg;
  const int windows[] = {0, 1, 2, 8, FlowDetector::kDefaultPostWindow};
  dcfg.post_window = windows[rng.NextBelow(5)];

  struct Universe {
    explicit Universe(const FlowDetector::Config& cfg)
        : detector(cfg, [this](vm::ThreadId t) { return ctxts[t]; }) {
      detector.set_flow_callback([this](const FlowEvent& ev) { flows.push_back(ev); });
    }
    vm::Interpreter interp;
    vm::Memory mem;
    std::map<vm::ThreadId, vm::CpuState> cpus;
    std::map<vm::ThreadId, CtxtId> ctxts;
    FlowDetector detector;
    std::vector<FlowEvent> flows;
  };
  Universe cached(dcfg), plain(dcfg);
  SectionCache cache;  // shadow-verify stays at the build default

  // Program pool: the canonical producer/consumer patterns (distinct
  // locks per pattern family, so roles make sense) plus random bodies.
  struct Pooled {
    vm::Program program;
    uint64_t base;  // r0 for every run
  };
  std::vector<Pooled> pool;
  pool.push_back({ApQueuePush(10), 0x1000});
  pool.push_back({ApQueuePop(10), 0x1000});
  pool.push_back({CounterIncrement(11), 0x5000});
  pool.push_back({MemFree(12), 0x6000});
  pool.push_back({MemAlloc(12), 0x6000});
  pool.push_back({ListEnqueue(13), 0x8000});
  pool.push_back({ListDequeue(13), 0x8000});
  const int n_random = 2 + static_cast<int>(rng.NextBelow(4));
  for (int i = 0; i < n_random; ++i) {
    // Random sections share locks 20/21 to fuzz lock interleavings
    // (several distinct program bodies under one lock id).
    pool.push_back({RandomSection(rng, 20 + rng.NextBelow(2), i), 0x9000 + 0x100u * (i % 2)});
  }

  // Seed the queue/freelist regions so consumers have something.
  for (Universe* u : {&cached, &plain}) {
    u->mem.Write(0x6000, 0x6100);   // freelist head -> one block
    u->mem.Write(0x6100, 0);
  }

  CtxtId next_ctxt = 1;
  for (int step = 0; step < 600; ++step) {
    const Pooled& p = pool[rng.NextBelow(pool.size())];
    const auto t = static_cast<vm::ThreadId>(rng.NextBelow(4));
    const bool fresh_ctxt = rng.NextBernoulli(0.3);
    if (fresh_ctxt) {
      ++next_ctxt;
    }
    uint64_t r1 = 0x6100, r2 = 100 + rng.NextBelow(100);
    if (rng.NextBernoulli(0.5)) {
      r1 = 0x8100 + 0x40 * rng.NextBelow(4);  // list elements
    }
    for (Universe* u : {&cached, &plain}) {
      if (fresh_ctxt) {
        u->ctxts[t] = next_ctxt;
      }
      vm::CpuState& cpu = u->cpus[t];
      cpu.regs[0] = p.base;
      cpu.regs[1] = r1;
      cpu.regs[2] = r2;
      cpu.regs[5] = 0x2000 + 0x40u * t;
      cpu.regs[6] = 0x2008 + 0x40u * t;
    }
    const vm::ExecResult rc =
        cache.Run(cached.interp, p.program, t, cached.cpus[t], cached.mem, &cached.detector);
    const vm::ExecResult rp =
        plain.interp.ExecuteWith(p.program, t, plain.cpus[t], plain.mem, &plain.detector);

    // Simulated-cost accounting must be identical on every step, hit
    // or miss (summaries never absorb translation cycles).
    ASSERT_EQ(rc.instructions, rp.instructions) << "step " << step;
    ASSERT_EQ(rc.guest_cycles, rp.guest_cycles) << "step " << step;
    ASSERT_EQ(rc.translated, rp.translated) << "step " << step;
    ASSERT_EQ(cached.cpus[t].regs, plain.cpus[t].regs) << "step " << step;
    ASSERT_EQ(cached.cpus[t].cmp, plain.cpus[t].cmp) << "step " << step;
    if (step % 50 == 0) {
      ASSERT_EQ(cached.mem.Snapshot(), plain.mem.Snapshot()) << "step " << step;
      ASSERT_TRUE(cached.detector.DeepEquals(plain.detector)) << "step " << step;
    }
  }

  EXPECT_EQ(cached.mem.Snapshot(), plain.mem.Snapshot());
  EXPECT_TRUE(cached.detector.DeepEquals(plain.detector));
  ASSERT_EQ(cached.flows.size(), plain.flows.size());
  for (size_t i = 0; i < cached.flows.size(); ++i) {
    ASSERT_EQ(cached.flows[i], plain.flows[i]) << "flow " << i;
  }
  // 600 steps over a dozen-program pool must reach a warm steady
  // state; a cache that never replays is vacuous equivalence.
  EXPECT_GT(cache.hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SectionCacheFuzzTest,
                         ::testing::Values(5, 29, 31, 47, 83, 211, 499, 1009));

}  // namespace
}  // namespace whodunit::shm
