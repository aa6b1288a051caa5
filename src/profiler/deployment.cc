#include "src/profiler/deployment.h"

#include <sstream>
#include <utility>

#include "src/obs/live/daemon.h"
#include "src/profiler/stage_profiler.h"

namespace whodunit::profiler {

Deployment::Deployment() = default;
Deployment::~Deployment() = default;

std::string Deployment::DescribeElement(context::ElementKind kind, uint32_t id) const {
  if (kind == context::ElementKind::kCallPath) {
    std::string out;
    for (callpath::FunctionId f : paths_.PathTo(id)) {
      if (!out.empty()) {
        out += ">";
      }
      out += functions_.Name(f);
    }
    return out;
  }
  if (element_namer_) {
    return element_namer_(kind, id);
  }
  std::ostringstream out;
  out << (kind == context::ElementKind::kHandler ? "handler:" : "stage:") << id;
  return out.str();
}

std::string Deployment::DescribeContext(context::NodeId ctxt) const {
  return contexts_.ToString(
      ctxt, [this](context::ElementKind kind, uint32_t id) { return DescribeElement(kind, id); });
}

std::string Deployment::DescribeSynopsis(const context::Synopsis& synopsis) const {
  std::ostringstream out;
  bool first = true;
  for (uint32_t part : synopsis.parts) {
    if (!first) {
      out << " # ";
    }
    first = false;
    if (synopses_.Contains(part)) {
      out << DescribeContext(synopses_.Lookup(part));
    } else {
      out << "?" << part;
    }
  }
  return out.str();
}

StageProfiler& Deployment::AddStage(std::unique_ptr<StageProfiler> stage) {
  stages_.push_back(std::move(stage));
  stages_.back()->AttachLive(live_);
  return *stages_.back();
}

void Deployment::AttachLive(obs::live::Whodunitd* live) {
  live_ = live;
  for (const auto& stage : stages_) {
    stage->AttachLive(live);
  }
  if (live == nullptr) {
    return;
  }
  live->set_flush_hook([this] { FlushLiveCosts(); });
  live->set_ctxt_namer([this](context::NodeId node) {
    if (node == context::kEmptyContext) {
      return std::string("(origin)");
    }
    return DescribeContext(node);
  });
}

void Deployment::FlushLiveCosts() {
  for (const auto& stage : stages_) {
    stage->FlushLive();
  }
}

}  // namespace whodunit::profiler
