// Profile serialization and post-mortem loading (paper §7.1).
//
// "When the program exits, Whodunit finalizes its state and writes the
// profile data to disk. In a final presentation phase, Whodunit
// stitches together the profiles from the application stages using
// transaction context information."
//
// The format is line-oriented text, self-contained per stage (function
// names inline, CCT labels as synopsis part lists), plus a deployment
// dictionary file mapping part ids to human-readable context
// descriptions. An offline tool (or the OfflineStitch function) can
// reconstruct the full transactional profile from the files alone.
#ifndef SRC_PROFILER_PROFILE_IO_H_
#define SRC_PROFILER_PROFILE_IO_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/callpath/cct.h"
#include "src/callpath/function_registry.h"
#include "src/context/synopsis.h"
#include "src/profiler/stage_profiler.h"

namespace whodunit::profiler {

// One stage's profile as written at exit.
std::string SerializeProfile(const StageProfiler& stage);

// The deployment's synopsis dictionary: part id -> description.
std::string SerializeDictionary(const Deployment& deployment);

// A stage profile re-read from its serialized form. Owns its own
// function registry and path tree (ids are file-local); every CCT
// counts over that path tree.
struct LoadedProfile {
  std::string stage_name;
  uint64_t payload_bytes = 0;
  uint64_t context_bytes = 0;
  callpath::FunctionRegistry functions;
  callpath::PathTree paths;
  std::vector<std::pair<context::Synopsis, callpath::CallingContextTree>> ccts;
};

// Parses a serialized profile. Returns false on malformed input.
bool ParseProfile(std::string_view text, LoadedProfile* out);

// Parses a serialized dictionary into part id -> description.
bool ParseDictionary(std::string_view text, std::map<uint32_t, std::string>* out);

// The presentation phase, run entirely from serialized data: renders
// each stage's per-context profile and the request edges recovered by
// the synopsis prefix rule.
std::string OfflineStitch(const std::vector<LoadedProfile>& profiles,
                          const std::map<uint32_t, std::string>& dictionary,
                          double min_fraction = 0.0);

}  // namespace whodunit::profiler

#endif  // SRC_PROFILER_PROFILE_IO_H_
