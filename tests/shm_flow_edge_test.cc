// Edge cases of the §3 flow-detection algorithm around the consume
// window, nested locks, demotion, and the role-list introspection API.
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "src/shm/flow_detector.h"
#include "src/vm/program_builder.h"

namespace whodunit::shm {
namespace {

using vm::CpuState;
using vm::Interpreter;
using vm::Memory;
using vm::Program;
using vm::ProgramBuilder;
using vm::ThreadId;

constexpr uint64_t kLockA = 1;
constexpr uint64_t kLockB = 2;
constexpr uint64_t kSharedAddr = 0x1000;
constexpr uint64_t kOutAddr = 0x2000;

class Harness {
 public:
  Harness() : detector_(MakeProvider()) {}
  explicit Harness(FlowDetector::Config config) : detector_(config, MakeProvider()) {}

  void SetCtxt(ThreadId t, CtxtId c) { ctxts_[t] = c; }

  vm::ExecResult Run(const Program& p, ThreadId t,
                     const std::map<int, uint64_t>& regs = {}) {
    CpuState& cpu = cpus_[t];
    for (const auto& [r, v] : regs) {
      cpu.regs[static_cast<size_t>(r)] = v;
    }
    return interp_.ExecuteWith(p, t, cpu, mem_, &detector_);
  }

  FlowDetector& detector() { return detector_; }

 private:
  FlowDetector::CtxtProvider MakeProvider() {
    return [this](ThreadId t) {
      auto it = ctxts_.find(t);
      return it == ctxts_.end() ? CtxtId{0} : it->second;
    };
  }

  std::map<ThreadId, CtxtId> ctxts_;
  std::map<ThreadId, CpuState> cpus_;
  Memory mem_;
  Interpreter interp_;
  FlowDetector detector_;
};

// r0 = kSharedAddr, r1 = value: produce the value into shared memory
// under the lock.
Program Produce(uint64_t lock) {
  return ProgramBuilder("produce").Lock(lock).MovMR(0, 0, 1).Unlock(lock).Build();
}

// r0 = kSharedAddr, r5 = kOutAddr: pick the value up under the lock,
// then touch it `pad_after` instructions after the unlock.
Program ConsumeAfter(uint64_t lock, int pad_after) {
  ProgramBuilder b("consume");
  b.Lock(lock).MovRM(7, 0).Unlock(lock);
  for (int i = 0; i < pad_after; ++i) {
    b.Nop();
  }
  // The post-critical-section read of r7 is the consumption point.
  b.MovMR(5, 0, 7);
  return b.Build();
}

// The consume window starts at post_window when the outermost lock is
// released and shrinks by one per retired instruction outside the
// critical section. The unlock instruction itself retires first, so a
// read `pad` instructions later sees post_window - 1 - pad window
// slots left: pad = post_window - 2 is the last flow-detecting
// position and pad = post_window - 1 just misses.
TEST(FlowDetectorEdgeTest, ConsumeWindowExpiresExactlyAtPostWindow) {
  for (const auto& [pad, expect_flow] :
       {std::pair<int, bool>{FlowDetector::kDefaultPostWindow - 2, true},
        std::pair<int, bool>{FlowDetector::kDefaultPostWindow - 1, false}}) {
    Harness h;
    h.SetCtxt(1, 100);
    h.Run(Produce(kLockA), 1, {{0, kSharedAddr}, {1, 0xAB}});
    h.Run(ConsumeAfter(kLockA, pad), 2, {{0, kSharedAddr}, {5, kOutAddr}});
    EXPECT_EQ(h.detector().flows_detected(), expect_flow ? 1u : 0u)
        << "pad=" << pad;
  }
}

TEST(FlowDetectorEdgeTest, SmallWindowBoundary) {
  // Same boundary with a custom (small) window, to pin the arithmetic
  // rather than the default constant.
  FlowDetector::Config config;
  config.post_window = 4;
  for (const auto& [pad, expect_flow] :
       {std::pair<int, bool>{2, true}, std::pair<int, bool>{3, false}}) {
    Harness h{config};
    h.SetCtxt(1, 100);
    h.Run(Produce(kLockA), 1, {{0, kSharedAddr}, {1, 0xAB}});
    h.Run(ConsumeAfter(kLockA, pad), 2, {{0, kSharedAddr}, {5, kOutAddr}});
    EXPECT_EQ(h.detector().flows_detected(), expect_flow ? 1u : 0u)
        << "pad=" << pad;
  }
}

// §3.3.2 nested locks: analysis is governed by the *outermost* held
// lock. A location set under lock A and touched inside a critical
// section whose outermost lock is B was "used for different purposes
// at different times" — its stale entry is flushed, so no flow is
// reported even though bytes moved between threads.
TEST(FlowDetectorEdgeTest, NestedLockFlushesForeignEntryUnderOutermost) {
  Harness h;
  h.SetCtxt(1, 100);
  h.SetCtxt(2, 200);
  h.Run(Produce(kLockA), 1, {{0, kSharedAddr}, {1, 0xCD}});

  // Thread 2 reads the location while holding B (outermost) then A
  // (nested) — the entry written under A is foreign to this section.
  Program nested = ProgramBuilder("nested")
                       .Lock(kLockB)
                       .Lock(kLockA)
                       .MovRM(7, 0)
                       .Unlock(kLockA)
                       .Unlock(kLockB)
                       .MovMR(5, 0, 7)
                       .Build();
  h.Run(nested, 2, {{0, kSharedAddr}, {5, kOutAddr}});

  // The flush re-associated the value with thread 2's own context, so
  // the post-section read is a self-read: no flow, and thread 2 shows
  // up as a producer of the *outermost* lock's resource, not A's.
  EXPECT_EQ(h.detector().flows_detected(), 0u);
  EXPECT_TRUE(h.detector().producers_of(kLockA).contains(1));
  EXPECT_FALSE(h.detector().producers_of(kLockA).contains(2));
}

// The allocator pattern (§3.4): once a lock's producer and consumer
// lists intersect, ShouldEmulate flips mid-run and stays flipped —
// later critical sections under that lock report no flows even for
// genuine cross-thread movement.
TEST(FlowDetectorEdgeTest, DemotionMidRunSuppressesLaterFlows) {
  Harness h;
  h.SetCtxt(1, 100);
  h.SetCtxt(2, 200);
  h.SetCtxt(3, 300);

  uint64_t demoted_lock = 0;
  h.detector().set_demote_callback([&](uint64_t lock_id) { demoted_lock = lock_id; });

  EXPECT_TRUE(h.detector().ShouldEmulate(kLockA));

  // Thread 1 produces and then consumes its own value: both role
  // lists now contain thread 1 => demotion.
  h.Run(Produce(kLockA), 1, {{0, kSharedAddr}, {1, 0x11}});
  h.Run(ConsumeAfter(kLockA, 0), 1, {{0, kSharedAddr}, {5, kOutAddr}});
  EXPECT_TRUE(h.detector().IsDemoted(kLockA));
  EXPECT_FALSE(h.detector().ShouldEmulate(kLockA));
  EXPECT_EQ(demoted_lock, kLockA);
  EXPECT_EQ(h.detector().flows_detected(), 0u);

  // Re-entry after the flip: a clean producer/consumer pair under the
  // demoted lock must stay silent...
  h.Run(Produce(kLockA), 2, {{0, kSharedAddr}, {1, 0x22}});
  h.Run(ConsumeAfter(kLockA, 0), 3, {{0, kSharedAddr}, {5, kOutAddr}});
  EXPECT_EQ(h.detector().flows_detected(), 0u);

  // ...while an undemoted lock keeps detecting normally.
  h.Run(Produce(kLockB), 2, {{0, kSharedAddr + 8}, {1, 0x33}});
  h.Run(ConsumeAfter(kLockB, 0), 3, {{0, kSharedAddr + 8}, {5, kOutAddr}});
  EXPECT_EQ(h.detector().flows_detected(), 1u);
}

// Regression: producers_of/consumers_of on a lock id the detector has
// never seen must yield a safe empty set, and the returned value must
// stay valid while the role table grows (the old implementation
// returned references into a rehashing container).
TEST(FlowDetectorEdgeTest, RoleListsOfUnknownLockAreSafe) {
  Harness h;
  h.SetCtxt(1, 100);

  const ThreadSet unknown_producers = h.detector().producers_of(0xdead);
  const ThreadSet unknown_consumers = h.detector().consumers_of(0xdead);
  EXPECT_TRUE(unknown_producers.empty());
  EXPECT_TRUE(unknown_consumers.empty());
  EXPECT_FALSE(unknown_producers.contains(1));

  // Populate many locks to force the role table through growth.
  for (uint64_t lock = 100; lock < 200; ++lock) {
    h.Run(Produce(lock), 1, {{0, kSharedAddr + lock * 8}, {1, lock}});
  }
  EXPECT_TRUE(unknown_producers.empty());
  EXPECT_TRUE(h.detector().producers_of(150).contains(1));
  EXPECT_TRUE(h.detector().producers_of(0xdead).empty());
}

// Thread ids at and past the 64-bit dense range of ThreadSet spill to
// the overflow path and must behave identically.
TEST(FlowDetectorEdgeTest, ThreadSetOverflowIds) {
  Harness h;
  h.SetCtxt(70, 700);  // beyond the one-word bitset
  h.SetCtxt(2, 200);

  h.Run(Produce(kLockA), 70, {{0, kSharedAddr}, {1, 0x44}});
  h.Run(ConsumeAfter(kLockA, 0), 2, {{0, kSharedAddr}, {5, kOutAddr}});

  EXPECT_EQ(h.detector().flows_detected(), 1u);
  EXPECT_TRUE(h.detector().producers_of(kLockA).contains(70));
  EXPECT_TRUE(h.detector().consumers_of(kLockA).contains(2));
  EXPECT_FALSE(h.detector().producers_of(kLockA).contains(69));
}

// A batch of n retires must behave like n single-instruction batches
// with no hooks in between. Whether a read consumed is
// observable through the allocator-pattern demotion it triggers.
TEST(FlowDetectorEdgeTest, RetireBatchMatchesSingleRetires) {
  FlowDetector::Config config;
  config.post_window = 10;
  const auto retire = [](FlowDetector& det, bool batched, int n) {
    if (batched) {
      det.OnRetireBatch(1, n);
    } else {
      for (int i = 0; i < n; ++i) {
        det.OnRetireBatch(1, 1);
      }
    }
  };
  const auto produce = [](FlowDetector& det) {
    det.OnLock(1, kLockA);
    det.OnMov(1, vm::Loc::Mem(kSharedAddr), vm::Loc::Reg(1, 1));
    det.OnUnlock(1, kLockA);
  };
  for (const bool batched : {false, true}) {
    // One window slot left: the self-read still consumes => demotion.
    {
      FlowDetector det(config, [](ThreadId) { return CtxtId{7}; });
      produce(det);
      retire(det, batched, 9);
      det.OnRead(1, vm::Loc::Mem(kSharedAddr));
      EXPECT_TRUE(det.IsDemoted(kLockA)) << "batched=" << batched;
      EXPECT_EQ(det.flows_detected(), 0u);  // self-read is never a flow
    }
    // Window exhausted exactly: the read no longer consumes.
    {
      FlowDetector det(config, [](ThreadId) { return CtxtId{7}; });
      produce(det);
      retire(det, batched, 10);
      det.OnRead(1, vm::Loc::Mem(kSharedAddr));
      EXPECT_FALSE(det.IsDemoted(kLockA)) << "batched=" << batched;
      // An over-large batch on an exhausted window must clamp, not wrap
      // around into a fresh window.
      det.OnRetireBatch(1, 1'000'000);
      det.OnRead(1, vm::Loc::Mem(kSharedAddr));
      EXPECT_FALSE(det.IsDemoted(kLockA));
    }
  }
}

}  // namespace
}  // namespace whodunit::shm
