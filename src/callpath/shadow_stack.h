// Shadow call stack for one simulated thread of control.
//
// The simulated applications declare their procedure structure with
// ScopedFrame guards; the stack mirrors the call path the hardware
// stack would hold as a cursor into a path tree (a path id names one
// whole call path), so sampling charges the current path id in O(1).
//
// Whodunit switches a thread between CCTs when its transaction context
// changes (paper §7.1); AttachCct makes the new CCT hold the live call
// path so profile samples continue at the right path.
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
  explicit ShadowStack(PathTree& paths) : paths_(paths) {}

  // One path-tree lookup; an attached CCT counts the call (it already
  // holds the parent path).
  void Push(FunctionId f) {
    path_ = paths_.Child(path_, f);
    ++depth_;
    if (cct_ != nullptr) {
      cct_->Add(path_, PathCounters{.calls = 1});
    }
  }
  void Pop() {
    path_ = paths_.parent(path_);
    --depth_;
  }

  // Attaches (or switches) the CCT samples flow into; it then holds
  // the current call path. Pass nullptr to detach.
  void AttachCct(CallingContextTree* cct) {
    cct_ = cct;
    if (cct_ != nullptr) {
      cct_->Hold(paths_, path_);
    }
  }
  CallingContextTree* cct() const { return cct_; }

  // The current call path: its id in the path tree.
  PathId path_id() const { return path_; }
  size_t depth() const { return depth_; }

 private:
  PathTree& paths_;
  PathId path_ = 0;
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
