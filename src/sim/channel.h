// Message channels between simulated stages.
//
// A Channel models any of the paper's explicit producer/consumer
// conduits: a socket between machines (latency > 0), a pipe, or an
// in-process queue (latency == 0). Delivery is FIFO; receivers block
// (suspend) until a message or channel close arrives.
//
// Every send costs one calendar entry at now + latency. Semantically a
// message is matched to the head blocked receiver (or buffered) when
// that entry fires. When the match is already decided at send time, the
// send is a rendezvous: the message moves straight into the head
// receiver's awaiter and the entry is a bare resume key for it
// (scheduler.h), with the (time, seq) the delivery callback would have
// had. The match is decided when
//   * a receiver is blocked, so one is at the head;
//   * no earlier message is in flight without a receiver — it would
//     fire first and take that head receiver; and
//   * Close() has not been called — its wake-all would fire first if
//     it is still in flight, and after it a send never meets a blocked
//     receiver.
// Receivers that block later queue behind the head, and with one
// latency per channel entries fire in send order, so nothing else can
// take the head first. Any other send carries the message in a
// delivery callback that matches it when it fires.
#ifndef SRC_SIM_CHANNEL_H_
#define SRC_SIM_CHANNEL_H_

#include <coroutine>
#include <cstdint>
#include <optional>
#include <utility>

#include "src/sim/scheduler.h"
#include "src/sim/time.h"
#include "src/util/ring_queue.h"

namespace whodunit::sim {

template <typename T>
class Channel {
 public:
  explicit Channel(Scheduler& sched, SimTime latency = 0) : sched_(sched), latency_(latency) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // Enqueues a message; it becomes receivable `latency` ns from now.
  // Safe to call from plain code or from a coroutine.
  void Send(T msg) {
    ++messages_sent_;
    if (!receivers_.empty() && unmatched_in_flight_ == 0 && !close_called_) {
      PendingReceiver r = receivers_.front();
      receivers_.pop_front();
      r.awaiter->result = std::move(msg);
      sched_.ResumeAfter(latency_, r.handle);
      return;
    }
    ++unmatched_in_flight_;
    sched_.ScheduleAfter(latency_, [this, m = std::move(msg)]() mutable { Deliver(std::move(m)); });
  }

  // Awaitable: co_await ch.Receive() yields std::optional<T>;
  // std::nullopt means the channel was closed and drained.
  struct ReceiveAwaiter {
    Channel& ch;
    std::optional<T> result;

    bool await_ready() {
      if (!ch.buffer_.empty()) {
        result = std::move(ch.buffer_.front());
        ch.buffer_.pop_front();
        return true;
      }
      if (ch.closed_) {
        return true;  // result stays nullopt
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ch.receivers_.push_back(PendingReceiver{this, h});
    }
    std::optional<T> await_resume() { return std::move(result); }
  };
  ReceiveAwaiter Receive() { return ReceiveAwaiter{*this, std::nullopt}; }

  // Closes the channel: blocked and future receivers get std::nullopt
  // once buffered messages are drained. The close travels in-band — it
  // is delivered through the scheduler after the channel latency, so it
  // never overtakes messages already sent.
  void Close() {
    close_called_ = true;
    sched_.ScheduleAfter(latency_, [this] {
      closed_ = true;
      // Wake all blocked receivers with nullopt; buffered messages were
      // already matched to receivers in Deliver, so the buffer is empty
      // whenever receivers_ is non-empty.
      while (!receivers_.empty()) {
        PendingReceiver r = receivers_.front();
        receivers_.pop_front();
        sched_.ResumeAfter(0, r.handle);
      }
    });
  }

  bool closed() const { return closed_; }
  size_t pending() const { return buffer_.size(); }
  // Receivers blocked and not yet matched to a message.
  size_t blocked_receivers() const { return receivers_.size(); }
  uint64_t messages_sent() const { return messages_sent_; }

 private:
  struct PendingReceiver {
    ReceiveAwaiter* awaiter;
    std::coroutine_handle<> handle;
  };

  void Deliver(T msg) {
    --unmatched_in_flight_;
    if (!receivers_.empty()) {
      PendingReceiver r = receivers_.front();
      receivers_.pop_front();
      r.awaiter->result = std::move(msg);
      r.handle.resume();
      return;
    }
    buffer_.push_back(std::move(msg));
  }

  Scheduler& sched_;
  SimTime latency_;
  bool closed_ = false;
  bool close_called_ = false;
  // Sends on the callback path whose callback has not fired yet.
  uint32_t unmatched_in_flight_ = 0;
  // Ring buffers, not deques: once sized to the high-water mark they
  // never touch the allocator again, keeping a busy channel off the
  // heap (libstdc++'s deque churns 512-byte chunks per wrap).
  util::RingQueue<T> buffer_;
  util::RingQueue<PendingReceiver> receivers_;
  uint64_t messages_sent_ = 0;
};

}  // namespace whodunit::sim

#endif  // SRC_SIM_CHANNEL_H_
