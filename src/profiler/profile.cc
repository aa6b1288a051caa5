#include "src/profiler/profile.h"

#include <algorithm>

#include "src/profiler/stage_profiler.h"

namespace whodunit::profiler {
namespace {

// names[id], or `prefix` followed by the id when it has no name.
template <typename Id>
std::string NameOf(const std::map<Id, std::string>& names, Id id, const char* prefix) {
  auto it = names.find(id);
  return it != names.end() ? it->second : prefix + std::to_string(id);
}

// An id -> name table as a fold extends it: a name it lacks is added
// at the smallest id above all of its ids.
template <typename Id>
class NameIndex {
 public:
  explicit NameIndex(std::map<Id, std::string>& names) : names_(names) {
    for (const auto& [id, name] : names) {
      ids_.emplace(name, id);
    }
  }
  Id operator()(const std::string& name) {
    const auto [it, added] = ids_.emplace(name, names_.empty() ? 0 : names_.rbegin()->first + 1);
    if (added) {
      names_.emplace(it->second, name);
    }
    return it->second;
  }

 private:
  std::map<Id, std::string>& names_;
  std::map<std::string, Id> ids_;
};

}  // namespace

Profile Profile::Of(const Deployment& deployment) {
  Profile out;
  out.functions = deployment.functions();
  out.paths = deployment.paths();
  for (const auto& stage : deployment.stages()) {
    Stage& copy = out.stages.emplace_back(
        Stage{stage->name(), stage->payload_bytes_sent(), stage->context_bytes_sent(), {}});
    for (const auto& [label, cct] : stage->LabeledCcts()) {
      for (uint32_t part : label.parts) {
        if (!out.parts.contains(part)) {
          out.parts.emplace(part,
                            deployment.DescribeContext(deployment.synopses().Lookup(part)));
        }
      }
      copy.rows.push_back(Row{label, *cct});
    }
  }
  return out;
}

void Profile::Fold(const Profile& other) {
  const std::vector<callpath::FunctionId> fn_remap = functions.MergeFrom(other.functions);
  // The other side's path ids here, parents (smaller ids) first.
  std::vector<callpath::PathId> path_remap(other.paths.size(), paths.root());
  for (callpath::PathId p = 1; p < other.paths.size(); ++p) {
    path_remap[p] =
        paths.Child(path_remap[other.paths.parent(p)], fn_remap[other.paths.function(p)]);
  }
  // Synopsis parts and crosstalk tags are re-keyed by description and
  // by name.
  NameIndex<uint32_t> part_here(parts);
  NameIndex<uint64_t> tag_here(tag_names);
  for (const Stage& from : other.stages) {
    auto stage = std::find_if(stages.begin(), stages.end(),
                              [&from](const Stage& s) { return s.name == from.name; });
    if (stage == stages.end()) {
      stage = stages.insert(stage, Stage{from.name, 0, 0, {}});
    }
    stage->payload_bytes += from.payload_bytes;
    stage->context_bytes += from.context_bytes;
    for (const Row& row : from.rows) {
      context::Synopsis label;
      for (uint32_t part : row.label.parts) {
        label.parts.push_back(part_here(NameOf(other.parts, part, "?")));
      }
      const std::string context = Describe(label);
      auto it = std::partition_point(stage->rows.begin(), stage->rows.end(),
                                     [&](const Row& r) { return Describe(r.label) < context; });
      if (it == stage->rows.end() || Describe(it->label) != context) {
        it = stage->rows.insert(it, Row{label, {}});
      }
      for (callpath::PathId p = 0; p < row.cct.id_limit(); ++p) {
        if (row.cct.holds(p)) {
          it->cct.Add(path_remap[p], row.cct.at(p));
        }
      }
    }
  }
  crosstalk.MergeFrom(other.crosstalk, [&](uint64_t tag) {
    return tag_here(NameOf(other.tag_names, tag, "tag_"));
  });
}

std::string Profile::Describe(const context::Synopsis& label) const {
  if (label.empty()) {
    return "(origin)";
  }
  std::string out;
  for (size_t i = 0; i < label.parts.size(); ++i) {
    out += (i > 0 ? " # " : "") + NameOf(parts, label.parts[i], "?");
  }
  return out;
}

uint64_t Profile::Tag(std::string_view name) const {
  for (const auto& [tag, tag_name] : tag_names) {
    if (tag_name == name) {
      return tag;
    }
  }
  return kNoTag;
}

std::string Profile::RenderCrosstalk() const {
  return crosstalk.Render([this](uint64_t tag) { return NameOf(tag_names, tag, "tag_"); });
}

}  // namespace whodunit::profiler
