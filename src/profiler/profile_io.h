// Profile files (paper §7.1): written at exit, read back into a
// Profile for the presentation phase.
//
// The format is line-oriented text (docs/PROFILE_FORMAT.md): one file
// per stage, opening with the deployment's whole function table so a
// re-read profile keeps the writer's FunctionIds (and so its sibling
// order), plus one deployment dictionary file mapping synopsis part
// ids to context descriptions. A Stitcher over the re-read Profile
// renders the run's live report byte for byte.
#ifndef SRC_PROFILER_PROFILE_IO_H_
#define SRC_PROFILER_PROFILE_IO_H_

#include <string>
#include <string_view>

#include "src/profiler/deployment.h"
#include "src/profiler/profile.h"
#include "src/profiler/stage_profiler.h"

namespace whodunit::profiler {

// One stage's profile as written at exit.
std::string SerializeProfile(const StageProfiler& stage);

// The deployment's synopsis dictionary: part id -> description.
std::string SerializeDictionary(const Deployment& deployment);

// Appends a serialized stage (its function table, stage and rows) to
// `out`. A function table that disagrees with one already read is
// malformed. Returns false on malformed input, leaving `out` partly
// filled.
bool ParseProfile(std::string_view text, Profile* out);

// Reads a serialized dictionary into out->parts. Returns false on
// malformed input.
bool ParseDictionary(std::string_view text, Profile* out);

}  // namespace whodunit::profiler

#endif  // SRC_PROFILER_PROFILE_IO_H_
