#include "src/callpath/shadow_stack.h"

namespace whodunit::callpath {

void ShadowStack::Push(FunctionId f) {
  path_ = paths_.Child(path_, f);
  ++depth_;
  if (cct_ != nullptr) {
    node_ = cct_->Child(node_, f);
    cct_->AddCall(node_);
  }
}

void ShadowStack::Pop() {
  path_ = paths_.node(path_).parent;
  --depth_;
  if (cct_ != nullptr) {
    node_ = cct_->node(node_).parent;
  }
}

void ShadowStack::AttachCct(CallingContextTree* cct) {
  cct_ = cct;
  if (cct_ != nullptr) {
    node_ = Graft(path_);
  }
}

NodeIndex ShadowStack::Graft(NodeIndex path) {
  if (path == paths_.root()) {
    return cct_->root();
  }
  const CallingContextTree::Node& n = paths_.node(path);
  return cct_->Child(Graft(n.parent), n.function);
}

}  // namespace whodunit::callpath
