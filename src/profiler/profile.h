// A self-contained transactional profile (the presentation phase of
// paper §7.1).
//
// "When the program exits, Whodunit finalizes its state and writes the
// profile data to disk. In a final presentation phase, Whodunit
// stitches together the profiles from the application stages using
// transaction context information."
//
// A Profile owns everything that phase reads: the function table and
// path tree its CCTs count over, the stages with one row per synopsis
// label and CCT, the synopsis dictionary that describes the labels,
// and the crosstalk matrix with its tag names. It is filled
// from a live deployment (Profile::Of, the last step of a shard job)
// or from the files a run wrote (ParseProfile / ParseDictionary in
// profile_io.h), and merged across shard deployments by Fold. The
// Stitcher renders it exactly as it renders a live deployment.
#ifndef SRC_PROFILER_PROFILE_H_
#define SRC_PROFILER_PROFILE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/callpath/cct.h"
#include "src/callpath/function_registry.h"
#include "src/context/synopsis.h"
#include "src/crosstalk/crosstalk.h"
#include "src/profiler/deployment.h"

namespace whodunit::profiler {

struct Profile {
  // A stage's CCT for one transaction context.
  struct Row {
    context::Synopsis label;
    callpath::CallingContextTree cct;
  };
  struct Stage {
    std::string name;
    uint64_t payload_bytes = 0;
    uint64_t context_bytes = 0;
    std::vector<Row> rows;
  };

  callpath::FunctionRegistry functions;
  callpath::PathTree paths;  // every row's CCT counts over it
  std::vector<Stage> stages;
  // Synopsis part -> description of the context it names.
  std::map<uint32_t, std::string> parts;
  crosstalk::CrosstalkRecorder crosstalk;
  std::map<uint64_t, std::string> tag_names;  // crosstalk tag -> name

  // Copies the deployment's stages and their labeled CCTs, with the
  // descriptions of the synopsis parts their labels use. Call while
  // the deployment is alive; the copy is safe to move across threads.
  static Profile Of(const Deployment& deployment);

  // Folds another profile (a shard's) in. Functions, paths, synopsis
  // parts, stages and crosstalk tags are unified by name or
  // description, and counters, byte counts and crosstalk stats are
  // summed. A stage's rows are kept sorted by context description, so
  // folding shards in shard-index order gives the same bytes whichever
  // threads ran them.
  void Fold(const Profile& other);

  // "a # b" for a label's parts (unknown parts as "?<id>"), or
  // "(origin)" for the empty label.
  std::string Describe(const context::Synopsis& label) const;

  // The tag named `name`, or kNoTag.
  static constexpr uint64_t kNoTag = ~0ull;
  uint64_t Tag(std::string_view name) const;
  std::string RenderCrosstalk() const;
};

}  // namespace whodunit::profiler

#endif  // SRC_PROFILER_PROFILE_H_
