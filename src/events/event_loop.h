// A libevent-like event library with transaction-context propagation.
//
// Figure 4 of the paper: the event structure carries a transaction
// context (`ev_tran_ctxt`), stamped when the event is registered; the
// event loop computes the current transaction context by concatenating
// the selected event's context with its handler (pruning loops) before
// dispatch. An application written against this library needs no
// modification for transactional profiling — exactly the property the
// paper claims for instrumented event libraries.
#ifndef SRC_EVENTS_EVENT_LOOP_H_
#define SRC_EVENTS_EVENT_LOOP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/context/context_tree.h"
#include "src/obs/metrics.h"
#include "src/sim/channel.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"
#include "src/util/symbol_table.h"

namespace whodunit::events {

using HandlerId = uint32_t;

struct Event {
  HandlerId handler;
  uint64_t payload;  // application data (connection id, fd, ...)
  // ev_tran_ctxt: the registering handler's transaction context, as an
  // interned context-tree node — a 4-byte handle, so stamping an event
  // no longer copies the element sequence.
  context::NodeId tran_ctxt = context::kEmptyContext;
  // Production sampling (docs/PRODUCTION.md): the transaction's
  // sampling decision rides beside the context handle; unsampled
  // events are dispatched without any context-tree work.
  bool sampled = true;
  // Virtual time the event was queued (stamped by AddEvent/Post); the
  // loop's queue residency is dispatch time minus this, the
  // kQueueWait attribution feed.
  int64_t posted_ns = 0;
};

class EventLoop {
 public:
  // A handler is a coroutine; the loop runs handlers to completion one
  // at a time (a single-threaded event-driven program).
  struct HandlerContext;
  using Handler = std::function<sim::Task<void>(HandlerContext&)>;

  // Fired whenever the current transaction context changes (before a
  // handler runs); the profiler glue hangs off this. Receives the
  // node id in the loop's context tree and the event's sampling
  // decision (the node is kEmptyContext when unsampled — no
  // concatenation was performed).
  using ContextListener = std::function<void(context::NodeId, bool sampled)>;

  // `contexts` is the owning deployment's context tree
  // (profiler::Deployment::contexts()); every dispatch interns into it.
  EventLoop(sim::Scheduler& sched, context::ContextTree& contexts);

  HandlerId RegisterHandler(std::string_view name, Handler handler);
  const std::string& HandlerName(HandlerId h) const { return handlers_.Name(h); }

  // event_add: stamps the new event with the CURRENT transaction
  // context (Figure 4 line 12) and queues it for dispatch.
  void AddEvent(HandlerId handler, uint64_t payload);

  // Injects an event from outside any handler (a fresh external
  // stimulus): its transaction context starts empty. `sampled` is the
  // fresh transaction's sampling decision
  // (profiler::SamplingPolicy::Decide at the origin).
  void AddExternalEvent(HandlerId handler, uint64_t payload, bool sampled = true);

  // The commSetSelect pattern: a handler registers interest in a
  // future I/O completion. MakeEvent stamps the CURRENT transaction
  // context into the event immediately (at registration time); Post
  // queues it later, when the I/O completes, preserving that context.
  Event MakeEvent(HandlerId handler, uint64_t payload) {
    Event ev{handler, payload, context::kEmptyContext, curr_sampled_};
    if (tracking_ && curr_sampled_) {
      ev.tran_ctxt = curr_node_;
    }
    return ev;
  }
  void Post(Event ev) {
    ev.posted_ns = sched_.now();
    queue_.Send(std::move(ev));
  }

  void set_context_listener(ContextListener listener) { listener_ = std::move(listener); }

  // The event_loop() of Figure 4. Runs until Stop().
  sim::Process Run();
  void Stop() { queue_.Close(); }

  // The current transaction context, a node of the loop's context tree.
  context::NodeId current_node() const { return curr_node_; }
  // The sampling decision of the event being dispatched.
  bool current_sampled() const { return curr_sampled_; }
  // Queue residency of the event being dispatched (dispatch time
  // minus its AddEvent/Post stamp) — the kQueueWait feed.
  int64_t current_queue_wait_ns() const { return curr_queue_wait_ns_; }
  uint64_t events_dispatched() const { return events_dispatched_; }

  // Whether context tracking is enabled (profiling on). When off, the
  // library behaves like stock libevent.
  void set_tracking(bool on) { tracking_ = on; }

  sim::Scheduler& scheduler() { return sched_; }

  struct HandlerContext {
    EventLoop& loop;
    uint64_t payload;
  };

 private:
  sim::Scheduler& sched_;
  context::ContextTree& contexts_;
  util::SymbolTable handlers_;
  std::vector<Handler> handler_fns_;
  sim::Channel<Event> queue_;
  context::NodeId curr_node_ = context::kEmptyContext;
  bool curr_sampled_ = true;
  int64_t curr_queue_wait_ns_ = 0;
  ContextListener listener_;
  bool tracking_ = true;
  uint64_t events_dispatched_ = 0;

  // Self-observability handles, resolved once (see docs/METRICS.md).
  obs::Counter* obs_dispatched_;
  obs::Counter* obs_external_;
  obs::Histogram* obs_queue_depth_;
  obs::Histogram* obs_handler_ns_;
  obs::Histogram* obs_queue_wait_;
};

}  // namespace whodunit::events

#endif  // SRC_EVENTS_EVENT_LOOP_H_
