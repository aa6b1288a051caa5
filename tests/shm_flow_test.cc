// Tests for the paper's §3 algorithm: transaction flow through shared
// memory, false-positive avoidance, and the §3.3.2 edge cases.
#include "src/shm/flow_detector.h"

#include <gtest/gtest.h>

#include <map>

#include "src/shm/guest_code.h"
#include "src/vm/program_builder.h"

namespace whodunit::shm {
namespace {

using vm::CpuState;
using vm::Interpreter;
using vm::Memory;
using vm::Program;
using vm::ProgramBuilder;
using vm::ThreadId;

constexpr uint64_t kLock = 42;
constexpr uint64_t kQueueBase = 0x1000;
constexpr uint64_t kOutSd = 0x2000;
constexpr uint64_t kOutP = 0x2008;

// A test harness with per-thread contexts and per-thread register
// files over one shared memory.
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
  Memory& mem() { return mem_; }
  CpuState& cpu(ThreadId t) { return cpus_[t]; }

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

TEST(FlowDetectorTest, ApacheQueueFlowDetected) {
  Harness h;
  h.SetCtxt(1, 100);  // listener thread, context 100
  h.SetCtxt(2, 200);  // worker thread

  h.Run(ApQueuePush(kLock), 1, {{0, kQueueBase}, {1, 0xAAAA}, {2, 0xBBBB}});
  EXPECT_EQ(h.detector().flows_detected(), 0u);
  h.Run(ApQueuePop(kLock), 2, {{0, kQueueBase}, {5, kOutSd}, {6, kOutP}});

  ASSERT_EQ(h.detector().flows_detected(), 1u);
  const FlowEvent& ev = h.detector().flow_log()[0];
  EXPECT_EQ(ev.producer, 1u);
  EXPECT_EQ(ev.consumer, 2u);
  EXPECT_EQ(ev.ctxt, 100u);  // the listener's context at produce time
  EXPECT_EQ(ev.lock_id, kLock);

  // The values actually moved through the queue.
  EXPECT_EQ(h.cpu(2).regs[7], 0xAAAAu);
  EXPECT_EQ(h.cpu(2).regs[8], 0xBBBBu);

  // Roles: listener produces, worker consumes; no demotion.
  EXPECT_TRUE(h.detector().producers_of(kLock).contains(1));
  EXPECT_TRUE(h.detector().consumers_of(kLock).contains(2));
  EXPECT_FALSE(h.detector().IsDemoted(kLock));
  EXPECT_TRUE(h.detector().ShouldEmulate(kLock));
}

TEST(FlowDetectorTest, MultiplePushesPreserveDistinctContexts) {
  Harness h;
  h.SetCtxt(1, 100);
  h.Run(ApQueuePush(kLock), 1, {{0, kQueueBase}, {1, 11}, {2, 12}});
  h.SetCtxt(1, 101);  // listener's context changes (new connection)
  h.Run(ApQueuePush(kLock), 1, {{0, kQueueBase}, {1, 21}, {2, 22}});

  h.SetCtxt(2, 200);
  h.SetCtxt(3, 300);
  // LIFO array queue: pop gets the most recent element first.
  h.Run(ApQueuePop(kLock), 2, {{0, kQueueBase}, {5, kOutSd}, {6, kOutP}});
  h.Run(ApQueuePop(kLock), 3, {{0, kQueueBase}, {5, 0x3000}, {6, 0x3008}});

  ASSERT_EQ(h.detector().flows_detected(), 2u);
  EXPECT_EQ(h.detector().flow_log()[0].ctxt, 101u);
  EXPECT_EQ(h.detector().flow_log()[0].consumer, 2u);
  EXPECT_EQ(h.detector().flow_log()[1].ctxt, 100u);
  EXPECT_EQ(h.detector().flow_log()[1].consumer, 3u);
}

TEST(FlowDetectorTest, OnePopYieldsOneLogicalFlow) {
  // sd and p are two words of the same element; consuming both is one
  // flow, not two.
  Harness h;
  h.SetCtxt(1, 100);
  h.Run(ApQueuePush(kLock), 1, {{0, kQueueBase}, {1, 5}, {2, 6}});
  h.Run(ApQueuePop(kLock), 2, {{0, kQueueBase}, {5, kOutSd}, {6, kOutP}});
  EXPECT_EQ(h.detector().flows_detected(), 1u);
}

TEST(FlowDetectorTest, SharedCounterIsNotFlow) {
  // Figure 2: two threads incrementing a shared counter.
  Harness h;
  h.SetCtxt(1, 100);
  h.SetCtxt(2, 200);
  Program inc = CounterIncrement(kLock);
  for (int i = 0; i < 10; ++i) {
    h.Run(inc, 1, {{0, 0x5000}});
    h.Run(inc, 2, {{0, 0x5000}});
  }
  EXPECT_EQ(h.detector().flows_detected(), 0u);
  EXPECT_EQ(h.mem().Read(0x5000), 20u);
  EXPECT_TRUE(h.detector().producers_of(kLock).empty());
  EXPECT_TRUE(h.detector().consumers_of(kLock).empty());
}

TEST(FlowDetectorTest, AllocatorPatternDemoted) {
  // Figure 3: every thread both frees (produces) and allocates
  // (consumes) -> role lists intersect -> demote.
  Harness h;
  h.SetCtxt(1, 100);
  constexpr uint64_t kHead = 0x6000;
  constexpr uint64_t kBlockA = 0x6100;

  bool demoted = false;
  h.detector().set_demote_callback([&](uint64_t lock) {
    demoted = true;
    EXPECT_EQ(lock, kLock);
  });

  h.Run(MemFree(kLock), 1, {{0, kHead}, {1, kBlockA}});
  EXPECT_TRUE(h.detector().producers_of(kLock).contains(1));
  h.Run(MemAlloc(kLock), 1, {{0, kHead}});
  EXPECT_EQ(h.cpu(1).regs[1], kBlockA);

  EXPECT_TRUE(demoted);
  EXPECT_TRUE(h.detector().IsDemoted(kLock));
  EXPECT_FALSE(h.detector().ShouldEmulate(kLock));
  // Self-consumption never counts as a transaction flow.
  EXPECT_EQ(h.detector().flows_detected(), 0u);
}

TEST(FlowDetectorTest, AllocatorAcrossThreadsAlsoDemoted) {
  // Thread 1 frees, thread 2 allocates, then thread 2 frees: thread 2
  // ends up in both role lists.
  Harness h;
  h.SetCtxt(1, 100);
  h.SetCtxt(2, 200);
  constexpr uint64_t kHead = 0x6000;

  h.Run(MemFree(kLock), 1, {{0, kHead}, {1, 0x6100}});
  h.Run(MemAlloc(kLock), 2, {{0, kHead}});
  EXPECT_FALSE(h.detector().IsDemoted(kLock));  // so far looks like flow
  h.Run(MemFree(kLock), 2, {{0, kHead}, {1, 0x6200}});
  EXPECT_TRUE(h.detector().IsDemoted(kLock));
}

TEST(FlowDetectorTest, LinkedQueueFlowAndFifoContexts) {
  Harness h;
  h.SetCtxt(1, 100);
  constexpr uint64_t kQ = 0x7000;
  h.Run(ListEnqueue(kLock), 1, {{0, kQ}, {1, 0x7100}, {2, 77}});
  h.SetCtxt(1, 101);
  h.Run(ListEnqueue(kLock), 1, {{0, kQ}, {1, 0x7200}, {2, 88}});

  h.SetCtxt(2, 200);
  h.Run(ListDequeue(kLock), 2, {{0, kQ}});
  EXPECT_EQ(h.cpu(2).regs[1], 0x7100u);
  EXPECT_EQ(h.cpu(2).regs[2], 77u);
  h.Run(ListDequeue(kLock), 2, {{0, kQ}});
  EXPECT_EQ(h.cpu(2).regs[1], 0x7200u);
  EXPECT_EQ(h.cpu(2).regs[2], 88u);

  ASSERT_GE(h.detector().flows_detected(), 2u);
  EXPECT_EQ(h.detector().flow_log()[0].ctxt, 100u);
  EXPECT_EQ(h.detector().flow_log()[1].ctxt, 101u);
}

TEST(FlowDetectorTest, EmptyDequeueNullPropagationIsNotFlow) {
  // §3.3.2: dequeuing the last element moves the producer's NULL
  // (invlctxt) into the head pointer; a subsequent dequeue of the empty
  // queue must not report a flow.
  Harness h;
  h.SetCtxt(1, 100);
  constexpr uint64_t kQ = 0x7000;
  h.Run(ListEnqueue(kLock), 1, {{0, kQ}, {1, 0x7100}, {2, 5}});
  h.Run(ListDequeue(kLock), 2, {{0, kQ}});
  EXPECT_EQ(h.detector().flows_detected(), 1u);

  // Queue now empty; head holds NULL carried from elem->next.
  h.Run(ListDequeue(kLock), 3, {{0, kQ}});
  EXPECT_EQ(h.cpu(3).regs[1], 0u);
  EXPECT_EQ(h.detector().flows_detected(), 1u);  // unchanged
}

TEST(FlowDetectorTest, ForeignLockFlushesContext) {
  // A value produced under lock A, then read under lock B: the entry
  // is flushed, so no flow is reported (the location was reused for a
  // different purpose, §3.2).
  Harness h;
  h.SetCtxt(1, 100);
  h.SetCtxt(2, 200);
  constexpr uint64_t kAddr = 0x8000;
  constexpr uint64_t kLockA = 1, kLockB = 2;

  // Producer stores under lock A.
  ProgramBuilder store("store_under_a");
  store.Lock(kLockA).MovMR(0, 0, 1).Unlock(kLockA).Halt();
  h.Run(store.Build(), 1, {{0, kAddr}, {1, 0xDEAD}});

  // Consumer reads under lock B and uses the value.
  ProgramBuilder load("load_under_b");
  load.Lock(kLockB).MovRM(3, 0, 0).Unlock(kLockB).CmpRI(3, 0).Halt();
  h.Run(load.Build(), 2, {{0, kAddr}});

  EXPECT_EQ(h.detector().flows_detected(), 0u);
}

TEST(FlowDetectorTest, SameLockDifferentProgramStillFlows) {
  // Sanity check for the previous test: the same read under the SAME
  // lock does flow.
  Harness h;
  h.SetCtxt(1, 100);
  constexpr uint64_t kAddr = 0x8000;
  ProgramBuilder store("store");
  store.Lock(kLock).MovMR(0, 0, 1).Unlock(kLock).Halt();
  h.Run(store.Build(), 1, {{0, kAddr}, {1, 0xDEAD}});
  ProgramBuilder load("load");
  load.Lock(kLock).MovRM(3, 0, 0).Unlock(kLock).CmpRI(3, 0).Halt();
  h.Run(load.Build(), 2, {{0, kAddr}});
  EXPECT_EQ(h.detector().flows_detected(), 1u);
}

TEST(FlowDetectorTest, ConsumeWindowExpires) {
  // Using the value more than `post_window` instructions after the
  // unlock is outside the emulation window: no consumption detected.
  FlowDetector::Config config;
  config.post_window = 8;
  Harness h(config);
  h.SetCtxt(1, 100);
  constexpr uint64_t kAddr = 0x9000;
  ProgramBuilder store("store");
  store.Lock(kLock).MovMR(0, 0, 1).Unlock(kLock).Halt();
  h.Run(store.Build(), 1, {{0, kAddr}, {1, 1234}});

  ProgramBuilder late("late_use");
  late.Lock(kLock).MovRM(3, 0, 0).Unlock(kLock);
  for (int i = 0; i < 10; ++i) {
    late.Nop();
  }
  late.CmpRI(3, 0).Halt();  // use after window closed
  h.Run(late.Build(), 2, {{0, kAddr}});
  EXPECT_EQ(h.detector().flows_detected(), 0u);

  // Same shape within the window does flow.
  h.Run(store.Build(), 1, {{0, kAddr}, {1, 1234}});
  ProgramBuilder in_time("in_time_use");
  in_time.Lock(kLock).MovRM(3, 0, 0).Unlock(kLock).Nop().CmpRI(3, 0).Halt();
  h.Run(in_time.Build(), 3, {{0, kAddr}});
  EXPECT_EQ(h.detector().flows_detected(), 1u);
}

TEST(FlowDetectorTest, TablePatternDemotesLikeMysql) {
  // §8.1: MySQL threads both read and write table rows under the same
  // lock; Whodunit correctly concludes no transaction flow.
  Harness h;
  h.SetCtxt(1, 100);
  h.SetCtxt(2, 200);
  constexpr uint64_t kTable = 0xA000;
  Program rd = TableRead(kLock);
  Program wr = TableWrite(kLock);

  h.Run(wr, 1, {{0, kTable}, {1, 0}, {2, 42}});  // t1 writes row 0
  h.Run(rd, 2, {{0, kTable}, {1, 0}});           // t2 reads row 0
  h.Run(wr, 2, {{0, kTable}, {1, 1}, {2, 43}});  // t2 writes row 1
  h.Run(rd, 1, {{0, kTable}, {1, 1}});           // t1 reads row 1

  EXPECT_TRUE(h.detector().IsDemoted(kLock));
  EXPECT_FALSE(h.detector().ShouldEmulate(kLock));
}

TEST(FlowDetectorTest, NestedLocksAnalyzedUnderOutermost) {
  // §3.3.2: instructions in an inner critical section belong to the
  // outermost lock's analysis.
  Harness h;
  h.SetCtxt(1, 100);
  h.SetCtxt(2, 200);
  constexpr uint64_t kOuter = 1, kInner = 2;
  constexpr uint64_t kAddr = 0xB000;

  ProgramBuilder store("nested_store");
  store.Lock(kOuter).Lock(kInner).MovMR(0, 0, 1).Unlock(kInner).Unlock(kOuter).Halt();
  h.Run(store.Build(), 1, {{0, kAddr}, {1, 7}});
  // The producer role must be attributed to the OUTER lock.
  EXPECT_TRUE(h.detector().producers_of(kOuter).contains(1));
  EXPECT_TRUE(h.detector().producers_of(kInner).empty());

  ProgramBuilder load("nested_load");
  load.Lock(kOuter).MovRM(3, 0, 0).Unlock(kOuter).CmpRI(3, 0).Halt();
  h.Run(load.Build(), 2, {{0, kAddr}});
  EXPECT_EQ(h.detector().flows_detected(), 1u);
  EXPECT_EQ(h.detector().flow_log()[0].lock_id, kOuter);
}

TEST(FlowDetectorTest, FlowCallbackFires) {
  Harness h;
  h.SetCtxt(1, 55);
  std::vector<FlowEvent> seen;
  h.detector().set_flow_callback([&](const FlowEvent& e) { seen.push_back(e); });
  h.Run(ApQueuePush(kLock), 1, {{0, kQueueBase}, {1, 1}, {2, 2}});
  h.Run(ApQueuePop(kLock), 2, {{0, kQueueBase}, {5, kOutSd}, {6, kOutP}});
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].ctxt, 55u);
}

TEST(FlowDetectorTest, RegistersClearedBetweenCriticalSections) {
  // A register holding a context from a previous critical section must
  // not leak it into the next one (native code ran in between).
  Harness h;
  h.SetCtxt(1, 100);
  h.SetCtxt(2, 200);
  constexpr uint64_t kA = 0xC000, kB = 0xC100;

  // Thread 1: load a produced value into r3 under the lock (r3 gets a
  // context), then in a SECOND critical section store r3 to kB. If
  // registers were not cleared on CS entry, kB would inherit thread
  // 1's old context even though r3 was (conceptually) recomputed by
  // native code in between.
  ProgramBuilder first("first_cs");
  first.Lock(kLock).MovMR(0, 0, 1).Unlock(kLock).Halt();
  h.Run(first.Build(), 2, {{0, kA}, {1, 9}});  // t2 produces at kA

  ProgramBuilder second("second_cs");
  second.Lock(kLock).MovRM(3, 0, 0).Unlock(kLock).Halt();  // t1 loads kA -> r3
  h.Run(second.Build(), 1, {{0, kA}});

  ProgramBuilder third("third_cs");
  third.Lock(kLock).MovMR(0, 0, 3).Unlock(kLock).Halt();  // t1 stores r3 -> kB
  h.Run(third.Build(), 1, {{0, kB}});

  // t3 consumes kB: the flow context must be t1's CURRENT context
  // (fresh production), not a stale propagation from t2.
  h.SetCtxt(1, 111);
  ProgramBuilder use("use");
  use.Lock(kLock).MovRM(4, 0, 0).Unlock(kLock).CmpRI(4, 0).Halt();
  h.Run(use.Build(), 3, {{0, kB}});
  // Exactly one flow (kB), and it carries t1's context at production
  // time of the third critical section (100, set before third ran).
  bool found = false;
  for (const auto& ev : h.detector().flow_log()) {
    if (ev.consumer == 3) {
      found = true;
      EXPECT_EQ(ev.producer, 1u);
      EXPECT_EQ(ev.ctxt, 100u);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace whodunit::shm
