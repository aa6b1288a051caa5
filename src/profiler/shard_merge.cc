#include "src/profiler/shard_merge.h"

#include <algorithm>

namespace whodunit::profiler {

void AppendStageCcts(const Deployment& deployment, const StageProfiler& stage,
                     ShardProfile* out) {
  out->functions = deployment.functions();
  out->paths = deployment.paths();
  for (const auto& [label, cct] : stage.LabeledCcts()) {
    out->ccts.push_back(ShardProfile::LabeledCct{
        stage.name(),
        label.empty() ? std::string("(origin)") : deployment.DescribeSynopsis(label), *cct});
  }
}

ShardProfile ExtractShardProfile(const Deployment& deployment,
                                 const crosstalk::CrosstalkRecorder* crosstalk,
                                 const std::function<std::string(uint64_t)>& tag_namer) {
  ShardProfile out;
  for (const auto& stage : deployment.stages()) {
    AppendStageCcts(deployment, *stage, &out);
  }
  std::sort(out.ccts.begin(), out.ccts.end(), [](const auto& a, const auto& b) {
    return std::tie(a.stage, a.label) < std::tie(b.stage, b.label);
  });
  if (crosstalk != nullptr) {
    out.crosstalk = *crosstalk;
    for (uint64_t tag : crosstalk->Tags()) {
      out.tag_names.emplace(tag, tag_namer ? tag_namer(tag)
                                           : "tag_" + std::to_string(tag));
    }
  }
  return out;
}

void MergedProfile::Fold(const ShardProfile& shard) {
  const std::vector<callpath::FunctionId> fn_remap = functions_.MergeFrom(shard.functions);
  // The shard's path ids in the merged tree, parents (smaller ids) first.
  std::vector<callpath::PathId> path_remap(shard.paths.size(), paths_.root());
  for (callpath::PathId p = 1; p < shard.paths.size(); ++p) {
    path_remap[p] =
        paths_.Child(path_remap[shard.paths.parent(p)], fn_remap[shard.paths.function(p)]);
  }
  for (const ShardProfile::LabeledCct& entry : shard.ccts) {
    callpath::CallingContextTree& cct = ccts_[{entry.stage, entry.label}];
    for (callpath::PathId p = 0; p < entry.cct.id_limit(); ++p) {
      if (entry.cct.holds(p)) {
        cct.Add(path_remap[p], entry.cct.at(p));
      }
    }
  }
  crosstalk_.MergeFrom(shard.crosstalk, [this, &shard](uint64_t tag) -> uint64_t {
    auto it = shard.tag_names.find(tag);
    const std::string name = it != shard.tag_names.end() ? it->second
                                                         : "tag_" + std::to_string(tag);
    return tag_names_.Intern(name);
  });
}

NamedCcts MergedProfile::LabeledCcts(std::string_view stage) const {
  NamedCcts out;
  for (const auto& [key, cct] : ccts_) {
    if (key.first == stage) {
      out.emplace_back(key.second, &cct);
    }
  }
  return out;  // map order: already label-sorted within the stage
}

std::string MergedProfile::RenderTransactionalProfile(std::string_view stage,
                                                      double min_fraction) const {
  return RenderStageCcts(stage, " (merged)", LabeledCcts(stage), paths_, functions_,
                         min_fraction);
}

uint64_t MergedProfile::MergedTag(std::string_view name) const {
  const uint32_t id = tag_names_.Find(name);
  return id == util::SymbolTable::kNotFound ? kNoMergedTag : id;
}

std::string MergedProfile::RenderCrosstalk() const {
  return crosstalk_.Render([this](uint64_t tag) {
    return tag < tag_names_.size() ? tag_names_.Name(static_cast<uint32_t>(tag))
                                   : "tag_" + std::to_string(tag);
  });
}

}  // namespace whodunit::profiler
