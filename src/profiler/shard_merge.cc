#include "src/profiler/shard_merge.h"

#include <algorithm>
#include <sstream>

#include "src/profiler/stage_profiler.h"

namespace whodunit::profiler {

void AppendStageCcts(const Deployment& deployment, const StageProfiler& stage,
                     ShardProfile* out) {
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
  out.functions = deployment.functions();
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
  for (const ShardProfile::LabeledCct& entry : shard.ccts) {
    ccts_[{entry.stage, entry.label}].MergeFrom(entry.cct, fn_remap);
  }
  crosstalk_.MergeFrom(shard.crosstalk, [this, &shard](uint64_t tag) -> uint64_t {
    auto it = shard.tag_names.find(tag);
    const std::string name = it != shard.tag_names.end() ? it->second
                                                         : "tag_" + std::to_string(tag);
    return tag_names_.Intern(name);
  });
}

std::vector<std::pair<std::string, const callpath::CallingContextTree*>>
MergedProfile::LabeledCcts(std::string_view stage) const {
  std::vector<std::pair<std::string, const callpath::CallingContextTree*>> out;
  for (const auto& [key, cct] : ccts_) {
    if (key.first == stage) {
      out.emplace_back(key.second, &cct);
    }
  }
  return out;  // map order: already label-sorted within the stage
}

std::string MergedProfile::RenderTransactionalProfile(std::string_view stage,
                                                      double min_fraction) const {
  std::ostringstream out;
  sim::SimTime stage_total = 0;
  for (const auto& [label, cct] : LabeledCcts(stage)) {
    stage_total += cct->TotalCpuTime();
  }
  const double total = static_cast<double>(stage_total);
  out << "=== transactional profile of stage '" << stage << "' (merged) ===\n";
  for (const auto& [label, cct] : LabeledCcts(stage)) {
    const double share =
        total > 0 ? 100.0 * static_cast<double>(cct->TotalCpuTime()) / total : 0.0;
    out << "--- context " << label << "  [" << share << "% of stage CPU, "
        << cct->TotalSamples() << " samples]\n";
    out << cct->Render(functions_, min_fraction);
  }
  return out.str();
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
