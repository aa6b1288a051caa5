// Shadow call stack for one simulated thread of control.
//
// The simulated applications declare their procedure structure with
// ScopedFrame guards; the stack mirrors the call path the hardware
// stack would hold as a cursor into a path tree (a CCT whose counters
// are never charged; a node index in it names one whole call path),
// and tracks the matching node in the currently attached CCT so that
// sampling is O(1).
//
// Whodunit switches a thread between CCTs when its transaction context
// changes (paper §7.1); AttachCct grafts the live call path into the
// new tree so profile samples continue at the right node.
#ifndef SRC_CALLPATH_SHADOW_STACK_H_
#define SRC_CALLPATH_SHADOW_STACK_H_

#include <cstddef>

#include "src/callpath/cct.h"
#include "src/callpath/function_registry.h"

namespace whodunit::callpath {

class ShadowStack {
 public:
  // `paths` interns every call path the stack reaches; stacks sharing
  // one tree get equal path ids for equal paths. The stack starts
  // detached; samples are dropped until a CCT is attached.
  explicit ShadowStack(CallingContextTree& paths) : paths_(paths) {}

  void Push(FunctionId f);
  void Pop();

  // Attaches (or switches) the CCT samples flow into; grafts the
  // current call path into it. Pass nullptr to detach.
  void AttachCct(CallingContextTree* cct);
  CallingContextTree* cct() const { return cct_; }

  // Node in the attached CCT matching the current call path;
  // kNoNode when detached.
  NodeIndex current_node() const { return cct_ ? node_ : kNoNode; }

  // The current call path: its node in the path tree.
  NodeIndex path_id() const { return path_; }
  size_t depth() const { return depth_; }

 private:
  // The node for `path` in the attached CCT, created root first.
  NodeIndex Graft(NodeIndex path);

  CallingContextTree& paths_;
  NodeIndex path_ = 0;
  // Only valid when cct_ != nullptr.
  NodeIndex node_ = 0;
  size_t depth_ = 0;
  CallingContextTree* cct_ = nullptr;
};

// RAII frame: push on construction, pop on destruction. Safe to hold
// across co_await (the shadow stack belongs to the simulated thread,
// not the host thread).
class ScopedFrame {
 public:
  ScopedFrame(ShadowStack& stack, FunctionId f) : stack_(stack) { stack_.Push(f); }
  ~ScopedFrame() { stack_.Pop(); }
  ScopedFrame(const ScopedFrame&) = delete;
  ScopedFrame& operator=(const ScopedFrame&) = delete;

 private:
  ShadowStack& stack_;
};

}  // namespace whodunit::callpath

#endif  // SRC_CALLPATH_SHADOW_STACK_H_
