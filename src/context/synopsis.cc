#include "src/context/synopsis.h"

#include <sstream>

#include "src/obs/metrics.h"

namespace whodunit::context {

bool Synopsis::HasPrefix(const Synopsis& p) const {
  if (p.parts.size() > parts.size()) {
    return false;
  }
  for (size_t i = 0; i < p.parts.size(); ++i) {
    if (parts[i] != p.parts[i]) {
      return false;
    }
  }
  return true;
}

Synopsis Synopsis::Extend(const Synopsis& tail) const {
  Synopsis out = *this;
  out.parts.reserve(parts.size() + tail.parts.size());
  for (uint32_t p : tail.parts) {
    out.parts.push_back(p);
  }
  return out;
}

size_t Synopsis::WireBytes() const {
  if (parts.empty()) {
    return 0;
  }
  return parts.size() * 4 + (parts.size() - 1);
}

std::string Synopsis::ToString() const {
  std::ostringstream out;
  bool first = true;
  for (uint32_t p : parts) {
    if (!first) {
      out << "#";
    }
    first = false;
    out << p;
  }
  return out.str();
}

uint64_t Synopsis::Hash() const {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint32_t p : parts) {
    for (int i = 0; i < 4; ++i) {
      h ^= (p >> (i * 8)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

uint32_t SynopsisDictionary::Intern(NodeId ctxt) {
  if (const uint32_t* found = ids_.Find(ctxt)) {
    obs_hits_->Add();
    return *found;
  }
  obs_inserts_->Add();
  const auto id = static_cast<uint32_t>(contexts_.size());
  contexts_.push_back(ctxt);
  ids_.Upsert(ctxt, id);
  return id;
}

}  // namespace whodunit::context
