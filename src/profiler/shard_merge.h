// Deterministic cross-shard profile merging (the presentation-phase
// merge of paper §7.1, applied across shard deployments).
//
// A shard deployment assigns its own FunctionIds, synopsis parts, and
// crosstalk tags, so its profile cannot be summed into another shard's
// by raw id. The merge therefore goes through names: a ShardProfile is
// a self-contained copy of one shard's labeled CCTs (labels rendered
// to their description strings) with the function table and path tree
// they count over, its crosstalk recorder, and the names of its
// crosstalk tags. MergedProfile folds ShardProfiles in
// the order given — fold shards in shard-index order and the merged
// profile is byte-identical no matter how many threads ran the shards.
#ifndef SRC_PROFILER_SHARD_MERGE_H_
#define SRC_PROFILER_SHARD_MERGE_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/callpath/cct.h"
#include "src/callpath/function_registry.h"
#include "src/crosstalk/crosstalk.h"
#include "src/profiler/deployment.h"
#include "src/profiler/stage_profiler.h"
#include "src/util/symbol_table.h"

namespace whodunit::profiler {

// A self-contained snapshot of one shard deployment's profile: safe to
// move across threads and to keep after the deployment is destroyed.
struct ShardProfile {
  struct LabeledCct {
    std::string stage;
    std::string label;  // the synopsis description, e.g. "servlet_Buy..."
    callpath::CallingContextTree cct;
  };
  callpath::FunctionRegistry functions;
  callpath::PathTree paths;      // every CCT below counts over it
  std::vector<LabeledCct> ccts;  // sorted by (stage, label)
  crosstalk::CrosstalkRecorder crosstalk;
  std::map<uint64_t, std::string> tag_names;
};

// Copies the deployment's per-stage labeled CCTs (labels described via
// the deployment's namers) and, when given, the crosstalk recorder
// with `tag_namer` applied to every observed tag. Call while the
// deployment is alive — typically as the last step of a shard job.
ShardProfile ExtractShardProfile(const Deployment& deployment,
                                 const crosstalk::CrosstalkRecorder* crosstalk,
                                 const std::function<std::string(uint64_t)>& tag_namer);

// Appends one stage's labeled CCTs (and the deployment's function
// table and path tree) to `out` — for apps whose stage profiler lives
// outside deployment.stages(). Appended entries are label-sorted per
// stage, matching ExtractShardProfile's order.
void AppendStageCcts(const Deployment& deployment, const StageProfiler& stage,
                     ShardProfile* out);

class MergedProfile {
 public:
  // Folds one shard in. Function ids are unified by name
  // (SymbolTable::MergeFrom), path ids are mapped into the merged path
  // tree, CCT counters are summed per (stage, label), and crosstalk
  // stats are summed with tags re-keyed by name — shards reporting the
  // same transaction type fold into one row, as a serial run would.
  void Fold(const ShardProfile& shard);

  // Merged labeled CCTs of one stage, label-sorted (mirrors
  // StageProfiler::LabeledCcts).
  NamedCcts LabeledCcts(std::string_view stage) const;

  // Transactional-profile text over the merged CCTs of `stage`
  // (mirrors StageProfiler::RenderTransactionalProfile).
  std::string RenderTransactionalProfile(std::string_view stage,
                                         double min_fraction = 0.0) const;

  // Merged crosstalk matrix; MergedTag resolves a tag name to its
  // merged tag id (kNoMergedTag if the name never appeared).
  static constexpr uint64_t kNoMergedTag = ~0ull;
  uint64_t MergedTag(std::string_view name) const;
  const crosstalk::CrosstalkRecorder& crosstalk() const { return crosstalk_; }
  std::string RenderCrosstalk() const;

  const callpath::FunctionRegistry& functions() const { return functions_; }

 private:
  callpath::FunctionRegistry functions_;
  callpath::PathTree paths_;
  std::map<std::pair<std::string, std::string>, callpath::CallingContextTree> ccts_;
  crosstalk::CrosstalkRecorder crosstalk_;
  util::SymbolTable tag_names_;
};

}  // namespace whodunit::profiler

#endif  // SRC_PROFILER_SHARD_MERGE_H_
