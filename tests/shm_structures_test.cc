// §3.3.2 validation on further shared data structures: sys/queue.h
// style doubly-linked queues, ring buffers, and a binary heap whose
// element moves must carry transaction contexts along (§3.2).
#include <gtest/gtest.h>

#include <map>

#include "src/shm/flow_detector.h"
#include "src/shm/guest_code.h"
#include "src/vm/interpreter.h"

namespace whodunit::shm {
namespace {

using vm::CpuState;
using vm::Interpreter;
using vm::Memory;
using vm::Program;
using vm::ThreadId;

constexpr uint64_t kLock = 5;
constexpr uint64_t kQ = 0x4000;

class Harness {
 public:
  Harness()
      : detector_([this](ThreadId t) {
          auto it = ctxts_.find(t);
          return it == ctxts_.end() ? CtxtId{0} : it->second;
        }) {}

  void SetCtxt(ThreadId t, CtxtId c) { ctxts_[t] = c; }

  CpuState& Run(const Program& p, ThreadId t, const std::map<int, uint64_t>& regs) {
    CpuState& cpu = cpus_[t];
    for (const auto& [r, v] : regs) {
      cpu.regs[static_cast<size_t>(r)] = v;
    }
    interp_.ExecuteWith(p, t, cpu, mem_, &detector_);
    return cpu;
  }

  FlowDetector& detector() { return detector_; }
  Memory& mem() { return mem_; }

 private:
  std::map<ThreadId, CtxtId> ctxts_;
  std::map<ThreadId, CpuState> cpus_;
  Memory mem_;
  Interpreter interp_;
  FlowDetector detector_;
};

TEST(TailqTest, InsertTailRemoveHeadFifoWithContexts) {
  Harness h;
  h.SetCtxt(1, 100);
  h.Run(TailqInsertTail(kLock), 1, {{0, kQ}, {1, 0x4100}, {2, 11}});
  h.SetCtxt(1, 101);
  h.Run(TailqInsertTail(kLock), 1, {{0, kQ}, {1, 0x4200}, {2, 22}});

  CpuState& c1 = h.Run(TailqRemoveHead(kLock), 2, {{0, kQ}});
  EXPECT_EQ(c1.regs[1], 0x4100u);
  EXPECT_EQ(c1.regs[2], 11u);
  CpuState& c2 = h.Run(TailqRemoveHead(kLock), 3, {{0, kQ}});
  EXPECT_EQ(c2.regs[1], 0x4200u);
  EXPECT_EQ(c2.regs[2], 22u);

  ASSERT_EQ(h.detector().flows_detected(), 2u);
  EXPECT_EQ(h.detector().flow_log()[0].ctxt, 100u);
  EXPECT_EQ(h.detector().flow_log()[1].ctxt, 101u);
}

TEST(TailqTest, InsertHeadGivesLifoOrder) {
  Harness h;
  h.SetCtxt(1, 100);
  h.Run(TailqInsertHead(kLock), 1, {{0, kQ}, {1, 0x4100}, {2, 11}});
  h.SetCtxt(1, 101);
  h.Run(TailqInsertHead(kLock), 1, {{0, kQ}, {1, 0x4200}, {2, 22}});

  CpuState& c1 = h.Run(TailqRemoveHead(kLock), 2, {{0, kQ}});
  EXPECT_EQ(c1.regs[2], 22u);  // most recent insert first
  CpuState& c2 = h.Run(TailqRemoveHead(kLock), 2, {{0, kQ}});
  EXPECT_EQ(c2.regs[2], 11u);
  // LIFO: the first pop carries the SECOND insert's context.
  ASSERT_GE(h.detector().flows_detected(), 2u);
  EXPECT_EQ(h.detector().flow_log()[0].ctxt, 101u);
  EXPECT_EQ(h.detector().flow_log()[1].ctxt, 100u);
}

TEST(TailqTest, EmptyRemoveIsNotFlow) {
  Harness h;
  h.SetCtxt(1, 100);
  h.Run(TailqInsertTail(kLock), 1, {{0, kQ}, {1, 0x4100}, {2, 11}});
  h.Run(TailqRemoveHead(kLock), 2, {{0, kQ}});
  EXPECT_EQ(h.detector().flows_detected(), 1u);
  // Queue empty now; head carries the NULL from head->next.
  CpuState& c = h.Run(TailqRemoveHead(kLock), 3, {{0, kQ}});
  EXPECT_EQ(c.regs[1], 0u);
  EXPECT_EQ(h.detector().flows_detected(), 1u);  // no new flow
}

TEST(TailqTest, MixedInsertHeadAndTail) {
  Harness h;
  h.SetCtxt(1, 100);
  h.SetCtxt(2, 200);
  h.Run(TailqInsertTail(kLock), 1, {{0, kQ}, {1, 0x4100}, {2, 1}});
  h.Run(TailqInsertHead(kLock), 2, {{0, kQ}, {1, 0x4200}, {2, 2}});
  h.Run(TailqInsertTail(kLock), 1, {{0, kQ}, {1, 0x4300}, {2, 3}});
  // Order: 0x4200 (head-insert), 0x4100, 0x4300.
  CpuState& c1 = h.Run(TailqRemoveHead(kLock), 3, {{0, kQ}});
  EXPECT_EQ(c1.regs[2], 2u);
  CpuState& c2 = h.Run(TailqRemoveHead(kLock), 3, {{0, kQ}});
  EXPECT_EQ(c2.regs[2], 1u);
  CpuState& c3 = h.Run(TailqRemoveHead(kLock), 3, {{0, kQ}});
  EXPECT_EQ(c3.regs[2], 3u);
  ASSERT_EQ(h.detector().flow_log().size(), 3u);
  EXPECT_EQ(h.detector().flow_log()[0].producer, 2u);
  EXPECT_EQ(h.detector().flow_log()[1].producer, 1u);
}

TEST(RingTest, WrapsAroundAndCarriesContexts) {
  Harness h;
  Program enq = RingEnqueue(kLock);
  Program deq = RingDequeue(kLock);
  // Fill and drain more than capacity so indexes wrap.
  uint32_t next_ctxt = 100;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kRingCapacity; ++i) {
      h.SetCtxt(1, next_ctxt++);
      h.Run(enq, 1, {{0, kQ}, {1, static_cast<uint64_t>(round * 100 + i)}});
    }
    for (int i = 0; i < kRingCapacity; ++i) {
      CpuState& c = h.Run(deq, 2, {{0, kQ}});
      EXPECT_EQ(c.regs[1], static_cast<uint64_t>(round * 100 + i));
    }
  }
  // One flow per dequeue, each with the matching producer context.
  ASSERT_EQ(h.detector().flows_detected(), 3u * kRingCapacity);
  for (size_t i = 0; i < h.detector().flow_log().size(); ++i) {
    EXPECT_EQ(h.detector().flow_log()[i].ctxt, 100u + i);
  }
}

TEST(RingTest, SlotReuseDoesNotLeakOldContext) {
  Harness h;
  Program enq = RingEnqueue(kLock);
  Program deq = RingDequeue(kLock);
  h.SetCtxt(1, 100);
  h.Run(enq, 1, {{0, kQ}, {1, 7}});
  h.Run(deq, 2, {{0, kQ}});
  ASSERT_EQ(h.detector().flows_detected(), 1u);
  // The same slot is reused by a different producer with a new ctxt.
  for (int i = 0; i < kRingCapacity - 1; ++i) {
    h.SetCtxt(1, 200);
    h.Run(enq, 1, {{0, kQ}, {1, static_cast<uint64_t>(i)}});
    h.Run(deq, 2, {{0, kQ}});
  }
  h.SetCtxt(3, 300);
  h.Run(enq, 3, {{0, kQ}, {1, 99}});
  CpuState& c = h.Run(deq, 2, {{0, kQ}});
  EXPECT_EQ(c.regs[1], 99u);
  EXPECT_EQ(h.detector().flow_log().back().ctxt, 300u);
  EXPECT_EQ(h.detector().flow_log().back().producer, 3u);
}

TEST(HeapTest, ElementMovesCarryContexts) {
  // §3.2: "in a priority queue implementation both producers and
  // consumers move elements in the queue to maintain the priority
  // queue properties. Our algorithm automatically detects that."
  Harness h;
  h.SetCtxt(1, 100);
  h.Run(HeapInsert(kLock), 1, {{0, kQ}, {1, 50}, {2, 0xAAA}});  // key 50
  h.SetCtxt(1, 101);
  h.Run(HeapInsert(kLock), 1, {{0, kQ}, {1, 10}, {2, 0xBBB}});  // key 10 -> sift to root

  // Extract-min returns the SECOND insert (key 10, context 101), and
  // moving the displaced element back must keep context 100 with it.
  CpuState& c1 = h.Run(HeapExtractMin(kLock), 2, {{0, kQ}});
  EXPECT_EQ(c1.regs[1], 10u);
  EXPECT_EQ(c1.regs[2], 0xBBBu);
  ASSERT_GE(h.detector().flows_detected(), 1u);
  EXPECT_EQ(h.detector().flow_log()[0].ctxt, 101u);

  CpuState& c2 = h.Run(HeapExtractMin(kLock), 3, {{0, kQ}});
  EXPECT_EQ(c2.regs[1], 50u);
  EXPECT_EQ(c2.regs[2], 0xAAAu);
  // The element moved twice (sift-up swap, then move-to-root), yet its
  // original producer context survived both moves.
  ASSERT_GE(h.detector().flows_detected(), 2u);
  EXPECT_EQ(h.detector().flow_log()[1].ctxt, 100u);
  EXPECT_EQ(h.detector().flow_log()[1].consumer, 3u);
}

TEST(HeapTest, NoSiftWhenInsertedInOrder) {
  Harness h;
  h.SetCtxt(1, 100);
  h.Run(HeapInsert(kLock), 1, {{0, kQ}, {1, 10}, {2, 0xAAA}});
  h.SetCtxt(1, 101);
  h.Run(HeapInsert(kLock), 1, {{0, kQ}, {1, 50}, {2, 0xBBB}});  // stays put
  CpuState& c1 = h.Run(HeapExtractMin(kLock), 2, {{0, kQ}});
  EXPECT_EQ(c1.regs[1], 10u);
  EXPECT_EQ(h.detector().flow_log()[0].ctxt, 100u);
  CpuState& c2 = h.Run(HeapExtractMin(kLock), 2, {{0, kQ}});
  EXPECT_EQ(c2.regs[1], 50u);
  EXPECT_EQ(h.detector().flow_log()[1].ctxt, 101u);
}

}  // namespace
}  // namespace whodunit::shm
