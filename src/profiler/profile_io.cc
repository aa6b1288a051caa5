#include "src/profiler/profile_io.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <sstream>
#include <system_error>
#include <vector>

namespace whodunit::profiler {
namespace {

// Field separators of the line format (newlines end lines).
constexpr std::string_view kSpace = " \t\r\f\v";

// Replaces whitespace in names so the line format stays parseable.
std::string Sanitize(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (c == '\n' || kSpace.find(c) != std::string_view::npos) {
      c = '_';
    }
  }
  return out;
}

// One line per held path in preorder; a path's line index is its
// preorder position (the root is 0 and has no line).
void SerializeCct(const callpath::CallingContextTree& cct, const callpath::PathTree& paths,
                  std::ostringstream& out) {
  std::vector<callpath::PathId> line(cct.id_limit());
  callpath::PathId next = 0;
  for (callpath::PathId p : cct.Preorder(paths)) {
    line[p] = next++;
    if (p == paths.root()) {
      continue;
    }
    const callpath::PathCounters& c = cct.at(p);
    out << "node " << line[p] << " " << line[paths.parent(p)] << " " << paths.function(p) << " "
        << c.samples << " " << c.cpu_time << " " << c.calls << "\n";
  }
}

std::string LabelToString(const context::Synopsis& label) {
  if (label.parts.empty()) {
    return "-";
  }
  return label.ToString();
}

// Whole-token unsigned/signed integer parses: no sign on unsigned
// values, no trailing characters, no wrap on overflow.
template <typename T>
bool ParseNumber(std::string_view tok, T* out) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, *out);
  return !tok.empty() && ec == std::errc() && ptr == end;
}

// Splits off the next line of `*rest`. Every line, the final `end`
// included, must be newline-terminated, so a truncated file never
// parses.
bool NextLine(std::string_view* rest, std::string_view* line) {
  const size_t nl = rest->find('\n');
  if (nl == std::string_view::npos) {
    return false;
  }
  *line = rest->substr(0, nl);
  rest->remove_prefix(nl + 1);
  return true;
}

// The whitespace-separated fields of one line.
std::vector<std::string_view> Fields(std::string_view line) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < line.size()) {
    const size_t start = line.find_first_not_of(kSpace, i);
    if (start == std::string_view::npos) {
      break;
    }
    const size_t stop = std::min(line.find_first_of(kSpace, start), line.size());
    out.push_back(line.substr(start, stop - start));
    i = stop;
  }
  return out;
}

bool ParseLabel(std::string_view text, context::Synopsis* out) {
  out->parts.clear();
  if (text == "-") {
    return true;
  }
  for (;;) {
    const size_t hash = text.find('#');
    uint32_t part = 0;
    if (!ParseNumber(text.substr(0, hash), &part)) {
      return false;
    }
    out->parts.push_back(part);
    if (hash == std::string_view::npos) {
      return true;
    }
    text.remove_prefix(hash + 1);
  }
}

}  // namespace

std::string SerializeProfile(const StageProfiler& stage) {
  const callpath::FunctionRegistry& functions = stage.deployment().functions();
  std::ostringstream out;
  out << "whodunit-profile 2\n";
  out << "stage " << Sanitize(stage.name()) << "\n";
  out << "bytes " << stage.payload_bytes_sent() << " " << stage.context_bytes_sent() << "\n";
  for (callpath::FunctionId f = 1; f < functions.size(); ++f) {
    out << "function " << f << " " << Sanitize(functions.Name(f)) << "\n";
  }
  for (const auto& [label, cct] : stage.LabeledCcts()) {
    out << "cct " << LabelToString(label) << "\n";
    SerializeCct(*cct, stage.deployment().paths(), out);
  }
  out << "end\n";
  return out.str();
}

std::string SerializeDictionary(const Deployment& deployment) {
  std::ostringstream out;
  out << "whodunit-dictionary 1\n";
  for (uint32_t part = 0; part < deployment.synopses().size(); ++part) {
    out << "part " << part << " "
        << Sanitize(deployment.DescribeContext(deployment.synopses().Lookup(part))) << "\n";
  }
  out << "end\n";
  return out.str();
}

bool ParseProfile(std::string_view text, Profile* out) {
  std::string_view line;
  if (!NextLine(&text, &line) || line != "whodunit-profile 2") {
    return false;
  }
  Profile::Stage* stage = nullptr;
  callpath::CallingContextTree* current = nullptr;
  // Functions this file's table has named so far: ids 1..functions-1.
  callpath::FunctionId functions = 1;
  // Serialized node index -> path in the profile's path tree.
  std::map<callpath::PathId, callpath::PathId> node_map;
  while (NextLine(&text, &line)) {
    const std::vector<std::string_view> f = Fields(line);
    if (f.empty()) {
      continue;
    }
    if (f[0] == "stage" && f.size() == 2 && stage == nullptr) {
      stage = &out->stages.emplace_back(Profile::Stage{std::string(f[1]), 0, 0, {}});
    } else if (f[0] == "bytes" && f.size() == 3 && stage != nullptr) {
      if (!ParseNumber(f[1], &stage->payload_bytes) ||
          !ParseNumber(f[2], &stage->context_bytes)) {
        return false;
      }
    } else if (f[0] == "function" && f.size() == 3) {
      // Entry `id` must be the profile's entry `id` where it has one.
      callpath::FunctionId id = 0;
      if (!ParseNumber(f[1], &id) || id != functions ||
          (id < out->functions.size() ? out->functions.Name(id) != f[2]
                                      : out->functions.Intern(f[2]) != id)) {
        return false;
      }
      ++functions;
    } else if (f[0] == "cct" && f.size() == 2 && stage != nullptr) {
      context::Synopsis label;
      if (!ParseLabel(f[1], &label)) {
        return false;
      }
      current = &stage->rows.emplace_back(Profile::Row{label, {}}).cct;
      node_map.clear();
      node_map[0] = out->paths.root();
    } else if (f[0] == "node" && f.size() == 7) {
      callpath::PathId idx = 0, parent = 0;
      callpath::FunctionId fn = 0;
      callpath::PathCounters c;
      if (current == nullptr || !ParseNumber(f[1], &idx) || !ParseNumber(f[2], &parent) ||
          !ParseNumber(f[3], &fn) || fn == 0 || fn >= functions ||
          !ParseNumber(f[4], &c.samples) || !ParseNumber(f[5], &c.cpu_time) ||
          !ParseNumber(f[6], &c.calls) || node_map.contains(idx) || !node_map.contains(parent)) {
        return false;
      }
      const callpath::PathId path = out->paths.Child(node_map[parent], fn);
      if (current->holds(path)) {
        return false;  // a second line for the same call path
      }
      node_map[idx] = path;
      current->Add(path, c);
    } else if (f[0] == "end" && f.size() == 1) {
      return stage != nullptr;
    } else {
      return false;
    }
  }
  return false;  // missing or unterminated "end"
}

bool ParseDictionary(std::string_view text, Profile* out) {
  std::string_view line;
  if (!NextLine(&text, &line) || line != "whodunit-dictionary 1") {
    return false;
  }
  while (NextLine(&text, &line)) {
    const std::vector<std::string_view> f = Fields(line);
    if (f.empty()) {
      continue;
    }
    if (f[0] == "part" && (f.size() == 2 || f.size() == 3)) {
      // An empty description serializes as no third field.
      uint32_t id = 0;
      if (!ParseNumber(f[1], &id)) {
        return false;
      }
      out->parts[id] = f.size() == 3 ? std::string(f[2]) : std::string();
    } else if (f[0] == "end" && f.size() == 1) {
      return true;
    } else {
      return false;
    }
  }
  return false;  // missing or unterminated "end"
}

}  // namespace whodunit::profiler
