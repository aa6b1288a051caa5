#include "src/profiler/profile_io.h"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <system_error>

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

void SerializeSubtree(const callpath::CallingContextTree& cct,
                      const callpath::FunctionRegistry& functions, callpath::NodeIndex node,
                      callpath::NodeIndex parent_out, callpath::NodeIndex& next_out,
                      std::ostringstream& out) {
  const auto& n = cct.node(node);
  const callpath::NodeIndex my_out = next_out++;
  if (node != cct.root()) {
    out << "node " << my_out << " " << parent_out << " " << Sanitize(functions.NameOf(n.function))
        << " " << n.samples << " " << n.cpu_time << " " << n.calls << "\n";
  }
  for (const auto& [f, child] : n.children) {
    SerializeSubtree(cct, functions, child, my_out, next_out, out);
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
  std::ostringstream out;
  out << "whodunit-profile 1\n";
  out << "stage " << Sanitize(stage.name()) << "\n";
  out << "bytes " << stage.payload_bytes_sent() << " " << stage.context_bytes_sent() << "\n";
  const auto& functions = stage.deployment().functions();
  for (const auto& [label, cct] : stage.LabeledCcts()) {
    out << "cct " << LabelToString(label) << "\n";
    callpath::NodeIndex next_out = 0;
    SerializeSubtree(*cct, functions, cct->root(), 0, next_out, out);
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

bool ParseProfile(std::string_view text, LoadedProfile* out) {
  std::string_view line;
  if (!NextLine(&text, &line) || line != "whodunit-profile 1") {
    return false;
  }
  callpath::CallingContextTree* current = nullptr;
  // Serialized node index -> node in the rebuilt tree.
  std::map<callpath::NodeIndex, callpath::NodeIndex> node_map;
  while (NextLine(&text, &line)) {
    const std::vector<std::string_view> f = Fields(line);
    if (f.empty()) {
      continue;
    }
    if (f[0] == "stage" && f.size() == 2) {
      out->stage_name = std::string(f[1]);
    } else if (f[0] == "bytes" && f.size() == 3) {
      if (!ParseNumber(f[1], &out->payload_bytes) || !ParseNumber(f[2], &out->context_bytes)) {
        return false;
      }
    } else if (f[0] == "cct" && f.size() == 2) {
      context::Synopsis label;
      if (!ParseLabel(f[1], &label)) {
        return false;
      }
      out->ccts.emplace_back(label, callpath::CallingContextTree());
      current = &out->ccts.back().second;
      node_map.clear();
      node_map[0] = current->root();
    } else if (f[0] == "node" && f.size() == 7) {
      callpath::NodeIndex idx = 0, parent = 0;
      uint64_t samples = 0, calls = 0;
      int64_t cpu = 0;
      if (current == nullptr || !ParseNumber(f[1], &idx) || !ParseNumber(f[2], &parent) ||
          !ParseNumber(f[4], &samples) || !ParseNumber(f[5], &cpu) ||
          !ParseNumber(f[6], &calls) || node_map.contains(idx) || !node_map.contains(parent)) {
        return false;
      }
      const auto fn = out->functions.Register(f[3]);
      const size_t nodes_before = current->size();
      const callpath::NodeIndex node = current->Child(node_map[parent], fn);
      if (current->size() == nodes_before) {
        return false;  // a second line for the same call path
      }
      node_map[idx] = node;
      current->AddSample(node, samples);
      current->AddCpuTime(node, cpu);
      current->AddCalls(node, calls);
    } else if (f[0] == "end" && f.size() == 1) {
      return true;
    } else {
      return false;
    }
  }
  return false;  // missing or unterminated "end"
}

bool ParseDictionary(std::string_view text, std::map<uint32_t, std::string>* out) {
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
      (*out)[id] = f.size() == 3 ? std::string(f[2]) : std::string();
    } else if (f[0] == "end" && f.size() == 1) {
      return true;
    } else {
      return false;
    }
  }
  return false;  // missing or unterminated "end"
}

std::string OfflineStitch(const std::vector<LoadedProfile>& profiles,
                          const std::map<uint32_t, std::string>& dictionary,
                          double min_fraction) {
  std::ostringstream out;
  auto describe = [&dictionary](const context::Synopsis& label) {
    if (label.parts.empty()) {
      return std::string("(origin)");
    }
    std::string text;
    for (uint32_t part : label.parts) {
      if (!text.empty()) {
        text += " # ";
      }
      auto it = dictionary.find(part);
      text += it == dictionary.end() ? "?" + std::to_string(part) : it->second;
    }
    return text;
  };

  out << "===== stitched transactional profile (post mortem) =====\n";
  for (const LoadedProfile& profile : profiles) {
    sim::SimTime total = 0;
    for (const auto& [label, cct] : profile.ccts) {
      total += cct.TotalCpuTime();
    }
    out << "=== stage '" << profile.stage_name << "' ===\n";
    for (const auto& [label, cct] : profile.ccts) {
      const double share =
          total > 0 ? 100.0 * static_cast<double>(cct.TotalCpuTime()) / static_cast<double>(total)
                    : 0.0;
      out << "--- context " << describe(label) << "  [" << share << "% of stage CPU]\n";
      out << cct.Render(profile.functions, min_fraction);
    }
  }
  // Request edges by the prefix rule, across the loaded stages.
  out << "===== transaction flow edges =====\n";
  for (const LoadedProfile& callee : profiles) {
    for (const auto& [label, cct] : callee.ccts) {
      if (label.parts.empty()) {
        continue;
      }
      context::Synopsis prefix = label;
      prefix.parts.pop_back();
      for (const LoadedProfile& caller : profiles) {
        for (const auto& [caller_label, caller_cct] : caller.ccts) {
          if (&caller_cct == &cct) {
            continue;
          }
          if (caller_label == prefix ||
              (prefix.HasPrefix(caller_label) && caller_label.parts.size() + 1 ==
                                                     label.parts.size())) {
            out << "  " << caller.stage_name << " " << describe(caller_label) << " --["
                << describe(context::Synopsis{{label.parts.back()}}) << "]--> "
                << callee.stage_name << "\n";
          }
        }
      }
    }
  }
  return out.str();
}

}  // namespace whodunit::profiler
