#include "src/sim/channel.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/task.h"
#include "src/util/rng.h"
#include "src/util/ring_queue.h"

namespace whodunit::sim {
namespace {

Process Consumer(Channel<int>& ch, std::vector<int>& out) {
  for (;;) {
    auto msg = co_await ch.Receive();
    if (!msg) {
      break;
    }
    out.push_back(*msg);
  }
}

TEST(ChannelTest, FifoDelivery) {
  Scheduler s;
  Channel<int> ch(s);
  std::vector<int> out;
  Spawn(s, Consumer(ch, out));
  ch.Send(1);
  ch.Send(2);
  ch.Send(3);
  ch.Close();
  s.Run();
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(ChannelTest, CloseWakesBlockedReceiver) {
  Scheduler s;
  Channel<int> ch(s);
  std::vector<int> out;
  bool finished = false;
  Spawn(s, [](Channel<int>& c, bool& done) -> Process {
    auto msg = co_await c.Receive();
    EXPECT_FALSE(msg.has_value());
    done = true;
  }(ch, finished));
  s.ScheduleAt(50, [&] { ch.Close(); });
  s.Run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(s.now(), 50);
}

TEST(ChannelTest, LatencyDelaysDelivery) {
  Scheduler s;
  Channel<int> ch(s, /*latency=*/100);
  SimTime received_at = -1;
  Spawn(s, [](Channel<int>& c, Scheduler& sched, SimTime& t) -> Process {
    auto msg = co_await c.Receive();
    EXPECT_TRUE(msg.has_value());
    t = sched.now();
  }(ch, s, received_at));
  s.ScheduleAt(10, [&] { ch.Send(7); });
  s.Run();
  EXPECT_EQ(received_at, 110);
}

TEST(ChannelTest, MultipleReceiversServedFifo) {
  Scheduler s;
  Channel<int> ch(s);
  std::vector<std::pair<int, int>> got;  // (receiver, value)
  auto receiver = [](Channel<int>& c, int who, std::vector<std::pair<int, int>>& g) -> Process {
    auto msg = co_await c.Receive();
    EXPECT_TRUE(msg.has_value());
    g.emplace_back(who, *msg);
  };
  Spawn(s, receiver(ch, 1, got));
  Spawn(s, receiver(ch, 2, got));
  s.ScheduleAt(5, [&] {
    ch.Send(10);
    ch.Send(20);
  });
  s.Run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::make_pair(1, 10));
  EXPECT_EQ(got[1], std::make_pair(2, 20));
}

TEST(ChannelTest, BufferedMessagesSurviveUntilReceive) {
  Scheduler s;
  Channel<std::string> ch(s);
  ch.Send("hello");
  s.Run();  // deliver to buffer
  EXPECT_EQ(ch.pending(), 1u);
  std::string got;
  Spawn(s, [](Channel<std::string>& c, std::string& out) -> Process {
    auto msg = co_await c.Receive();
    EXPECT_TRUE(msg.has_value());
    out = *msg;
  }(ch, got));
  s.Run();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(ch.pending(), 0u);
}

TEST(ChannelTest, DrainsBufferBeforeReportingClosed) {
  Scheduler s;
  Channel<int> ch(s);
  ch.Send(1);
  ch.Send(2);
  s.Run();
  ch.Close();
  std::vector<int> out;
  Spawn(s, Consumer(ch, out));
  s.Run();
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(ChannelTest, CountsMessages) {
  Scheduler s;
  Channel<int> ch(s);
  ch.Send(1);
  ch.Send(2);
  EXPECT_EQ(ch.messages_sent(), 2u);
}

Process PingPong(Scheduler& sched, Channel<int>& ping, Channel<int>& pong, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    ping.Send(i);
    auto r = co_await pong.Receive();
    EXPECT_TRUE(r.has_value());
    EXPECT_EQ(*r, i * 2);
  }
  ping.Close();
  (void)sched;
}

Process Echo(Channel<int>& ping, Channel<int>& pong) {
  for (;;) {
    auto msg = co_await ping.Receive();
    if (!msg) {
      break;
    }
    pong.Send(*msg * 2);
  }
}

TEST(ChannelTest, RequestResponseAcrossLatency) {
  Scheduler s;
  Channel<int> ping(s, 10), pong(s, 10);
  Spawn(s, Echo(ping, pong));
  Spawn(s, PingPong(s, ping, pong, 5));
  s.Run();
  // 5 round trips of 20 ns each, plus 10 ns for the in-band close to
  // propagate to the echo server.
  EXPECT_EQ(s.now(), 110);
}

// A callback-only channel, the reference for Channel's rendezvous
// sends: every message rides a delivery callback that matches it to the
// head blocked receiver (or buffers it) when the callback fires.
// Channel must be observably identical to it.
template <typename T>
class CallbackChannel {
 public:
  CallbackChannel(Scheduler& sched, SimTime latency) : sched_(sched), latency_(latency) {}

  void Send(T msg) {
    sched_.ScheduleAfter(latency_, [this, m = std::move(msg)]() mutable { Deliver(std::move(m)); });
  }

  struct ReceiveAwaiter {
    CallbackChannel& ch;
    std::optional<T> result;

    bool await_ready() {
      if (!ch.buffer_.empty()) {
        result = std::move(ch.buffer_.front());
        ch.buffer_.pop_front();
        return true;
      }
      return ch.closed_;
    }
    void await_suspend(std::coroutine_handle<> h) { ch.receivers_.push_back({this, h}); }
    std::optional<T> await_resume() { return std::move(result); }
  };
  ReceiveAwaiter Receive() { return ReceiveAwaiter{*this, std::nullopt}; }

  void Close() {
    sched_.ScheduleAfter(latency_, [this] {
      closed_ = true;
      while (!receivers_.empty()) {
        Pending r = receivers_.front();
        receivers_.pop_front();
        sched_.ResumeAfter(0, r.handle);
      }
    });
  }

  size_t pending() const { return buffer_.size(); }
  size_t blocked_receivers() const { return receivers_.size(); }

 private:
  struct Pending {
    ReceiveAwaiter* awaiter;
    std::coroutine_handle<> handle;
  };

  void Deliver(T msg) {
    if (!receivers_.empty()) {
      Pending r = receivers_.front();
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
  util::RingQueue<T> buffer_;
  util::RingQueue<Pending> receivers_;
};

// A random channel schedule, drawn before either run so both channels
// replay exactly the same inputs.
struct ChannelScript {
  struct Op {
    SimTime at;
    int value;  // -1 closes the channel
  };
  struct Receiver {
    SimTime start;
    std::vector<SimTime> gaps;  // delay before each receive
  };
  SimTime latency = 0;
  std::vector<Op> ops;
  std::vector<Receiver> receivers;
  // Receivers echo some messages back into the channel (value + 1000)
  // from inside their resumed frame.
  int echo_below = 0;
};

ChannelScript DrawScript(uint64_t seed) {
  util::Rng rng(seed);
  ChannelScript script;
  constexpr SimTime kLatencies[] = {0, 1, 7, 40};
  script.latency = kLatencies[rng.NextBelow(4)];
  // Short horizons make same-time ties and overlapping flights common.
  const auto horizon = static_cast<SimTime>(10 + rng.NextBelow(150));
  const int sends = 1 + static_cast<int>(rng.NextBelow(24));
  for (int i = 0; i < sends; ++i) {
    script.ops.push_back({static_cast<SimTime>(rng.NextBelow(horizon)), i});
  }
  // Close mid-stream (racing in-flight messages, with sends after it)
  // or after everything else.
  const SimTime close_at = rng.NextBernoulli(0.6)
                               ? static_cast<SimTime>(rng.NextBelow(horizon))
                               : horizon + 100;
  script.ops.push_back({close_at, -1});
  const int receivers = 1 + static_cast<int>(rng.NextBelow(4));
  for (int r = 0; r < receivers; ++r) {
    ChannelScript::Receiver rx;
    rx.start = static_cast<SimTime>(rng.NextBelow(horizon));
    const int receives = 1 + static_cast<int>(rng.NextBelow(10));
    for (int k = 0; k < receives; ++k) {
      rx.gaps.push_back(rng.NextBernoulli(0.5) ? 0 : static_cast<SimTime>(rng.NextBelow(30)));
    }
    script.receivers.push_back(std::move(rx));
  }
  script.echo_below = rng.NextBernoulli(0.3) ? static_cast<int>(rng.NextBelow(sends)) : 0;
  return script;
}

struct Delivery {
  int receiver;
  int value;  // -1 for a closed-channel nullopt
  SimTime at;
  bool operator==(const Delivery&) const = default;
};

struct ScriptRun {
  std::vector<Delivery> deliveries;
  uint64_t scheduled = 0;
  uint64_t executed = 0;
  uint64_t peak_depth = 0;
  size_t left_buffered = 0;
  // Sends that found a receiver blocked: the ones a rendezvous may take.
  int sends_meeting_receiver = 0;
};

template <typename Ch>
Process ScriptReceiver(Scheduler& s, Ch& ch, int id, const ChannelScript& script,
                       std::vector<Delivery>& out) {
  for (const SimTime gap : script.receivers[static_cast<size_t>(id)].gaps) {
    co_await Delay{s, gap};
    auto msg = co_await ch.Receive();
    out.push_back({id, msg ? *msg : -1, s.now()});
    if (!msg) {
      break;
    }
    if (*msg < script.echo_below) {
      ch.Send(*msg + 1000);
    }
  }
}

template <template <typename> class Ch>
ScriptRun RunScript(const ChannelScript& script) {
  ScriptRun run;
  {
    Scheduler s;
    Ch<int> ch(s, script.latency);
    for (const ChannelScript::Op& op : script.ops) {
      s.ScheduleAt(op.at, [&ch, &run, op] {
        if (op.value < 0) {
          ch.Close();
          return;
        }
        run.sends_meeting_receiver += ch.blocked_receivers() > 0 ? 1 : 0;
        ch.Send(op.value);
      });
    }
    for (size_t r = 0; r < script.receivers.size(); ++r) {
      SpawnAfter(s, script.receivers[r].start,
                 ScriptReceiver(s, ch, static_cast<int>(r), script, run.deliveries));
    }
    s.Run();
    run.scheduled = s.events_scheduled();
    run.executed = s.events_executed();
    run.peak_depth = s.peak_queue_depth();
    run.left_buffered = ch.pending();
  }
  return run;
}

TEST(ChannelTest, MatchesCallbackChannelOnRandomSchedules) {
  // Differential check of the rendezvous send path: on every schedule
  // both channels hand the same message (or the same closed-channel
  // nullopt) to the same receiver at the same virtual time, and the
  // calendar sees the same number of events at the same peak depth.
  int sends_meeting_receiver = 0;
  for (uint64_t seed = 1; seed <= 3000; ++seed) {
    const ChannelScript script = DrawScript(seed);
    const ScriptRun got = RunScript<Channel>(script);
    const ScriptRun want = RunScript<CallbackChannel>(script);
    ASSERT_EQ(got.deliveries.size(), want.deliveries.size()) << "seed " << seed;
    for (size_t i = 0; i < want.deliveries.size(); ++i) {
      const Delivery& g = got.deliveries[i];
      const Delivery& w = want.deliveries[i];
      ASSERT_EQ(g, w) << "seed " << seed << " delivery " << i << ": got receiver "
                      << g.receiver << " value " << g.value << " at " << g.at
                      << ", want receiver " << w.receiver << " value " << w.value << " at "
                      << w.at;
    }
    ASSERT_EQ(got.scheduled, want.scheduled) << "seed " << seed;
    ASSERT_EQ(got.executed, want.executed) << "seed " << seed;
    ASSERT_EQ(got.peak_depth, want.peak_depth) << "seed " << seed;
    ASSERT_EQ(got.left_buffered, want.left_buffered) << "seed " << seed;
    sends_meeting_receiver += want.sends_meeting_receiver;
  }
  EXPECT_GT(sends_meeting_receiver, 1000);
}

TEST(ChannelTest, SendToWaitingReceiverIsOneResumeKey) {
  Scheduler s;
  Channel<int> ch(s, /*latency=*/10);
  std::vector<int> out;
  Spawn(s, Consumer(ch, out));
  s.Run();  // the consumer blocks
  ASSERT_EQ(ch.blocked_receivers(), 1u);
  const uint64_t before = s.events_scheduled();
  ch.Send(5);
  // Matched at send time: the receiver is no longer waiting for a
  // message, and the send cost exactly one calendar entry.
  EXPECT_EQ(ch.blocked_receivers(), 0u);
  EXPECT_EQ(s.events_scheduled(), before + 1);
  s.Run();
  EXPECT_EQ(out, (std::vector<int>{5}));
  EXPECT_EQ(s.now(), 10);
  ch.Close();
  s.Run();
}

}  // namespace
}  // namespace whodunit::sim
