#include "src/obs/export.h"

#include <array>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace whodunit::obs {
namespace {

// The schema version ToJson writes and ParseJson accepts (docs/METRICS.md).
constexpr uint64_t kSchemaVersion = 3;

// ---- minimal parser for the schema ToJson emits ---------------------

struct Cursor {
  std::string_view text;
  size_t pos = 0;
  bool ok = true;

  void SkipWs() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool Peek(char c) {
    SkipWs();
    return pos < text.size() && text[pos] == c;
  }
  void Fail() { ok = false; }
};

bool ParseStringToken(Cursor& c, std::string* out) {
  if (!c.Consume('"')) {
    return false;
  }
  out->clear();
  while (c.pos < c.text.size()) {
    char ch = c.text[c.pos++];
    if (ch == '"') {
      return true;
    }
    if (ch == '\\' && c.pos < c.text.size()) {
      char esc = c.text[c.pos++];
      switch (esc) {
        case 'n':
          *out += '\n';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u':
          // Only \u00xx is ever emitted; decode the low byte.
          if (c.pos + 4 <= c.text.size()) {
            unsigned value = 0;
            for (int i = 0; i < 4; ++i) {
              value = value * 16;
              char h = c.text[c.pos + static_cast<size_t>(i)];
              if (h >= '0' && h <= '9') {
                value += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                value += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                value += static_cast<unsigned>(h - 'A' + 10);
              } else {
                return false;
              }
            }
            c.pos += 4;
            *out += static_cast<char>(value & 0xff);
          } else {
            return false;
          }
          break;
        default:
          *out += esc;
      }
    } else {
      *out += ch;
    }
  }
  return false;  // unterminated
}

// Parses a run of decimal digits; fails on no digits or on a value
// above UINT64_MAX.
bool ParseDigits(Cursor& c, uint64_t* out) {
  uint64_t value = 0;
  bool any = false;
  while (c.pos < c.text.size() && c.text[c.pos] >= '0' && c.text[c.pos] <= '9') {
    const uint64_t digit = static_cast<uint64_t>(c.text[c.pos] - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
    ++c.pos;
    any = true;
  }
  *out = value;
  return any;
}

bool ParseUint(Cursor& c, uint64_t* out) {
  c.SkipWs();
  return ParseDigits(c, out);
}

bool ParseInt(Cursor& c, int64_t* out) {
  c.SkipWs();
  const bool neg = c.pos < c.text.size() && c.text[c.pos] == '-';
  if (neg) {
    ++c.pos;
  }
  uint64_t value = 0;
  const uint64_t limit = neg ? uint64_t{1} << 63 : INT64_MAX;
  if (!ParseDigits(c, &value) || value > limit) {
    return false;
  }
  *out = neg ? static_cast<int64_t>(0 - value) : static_cast<int64_t>(value);
  return true;
}

// Parses {"name": uint, ...}.
bool ParseUintMap(Cursor& c, std::map<std::string, uint64_t>* out) {
  if (!c.Consume('{')) {
    return false;
  }
  if (c.Consume('}')) {
    return true;
  }
  do {
    std::string key;
    uint64_t value = 0;
    if (!ParseStringToken(c, &key) || !c.Consume(':') || !ParseUint(c, &value)) {
      return false;
    }
    (*out)[std::move(key)] = value;
  } while (c.Consume(','));
  return c.Consume('}');
}

bool ParseIntMap(Cursor& c, std::map<std::string, int64_t>* out) {
  if (!c.Consume('{')) {
    return false;
  }
  if (c.Consume('}')) {
    return true;
  }
  do {
    std::string key;
    int64_t value = 0;
    if (!ParseStringToken(c, &key) || !c.Consume(':') || !ParseInt(c, &value)) {
      return false;
    }
    (*out)[std::move(key)] = value;
  } while (c.Consume(','));
  return c.Consume('}');
}

// Parses a bucket key: the decimal lower bound of a LogHistogram
// bucket, without sign or leading zeros. Returns the bucket index, or
// kBuckets for anything else.
size_t ParseBucketKey(std::string_view key) {
  Cursor c{key};
  uint64_t lower = 0;
  if (!ParseDigits(c, &lower) || c.pos != key.size() || (key.size() > 1 && key[0] == '0')) {
    return util::LogHistogram::kBuckets;
  }
  const size_t i = util::LogHistogram::BucketOf(lower);
  return util::LogHistogram::BucketLowerBound(i) == lower ? i : util::LogHistogram::kBuckets;
}

// Parses {"<lower bound>": count, ...}: non-zero counts keyed by
// ascending bucket lower bounds, as ToJson writes them.
bool ParseBuckets(Cursor& c, std::array<uint64_t, util::LogHistogram::kBuckets>* out) {
  if (!c.Consume('{')) {
    return false;
  }
  if (c.Consume('}')) {
    return true;
  }
  size_t next = 0;  // the smallest bucket index the next key may name
  do {
    std::string key;
    uint64_t count = 0;
    if (!ParseStringToken(c, &key) || !c.Consume(':') || !ParseUint(c, &count)) {
      return false;
    }
    const size_t i = ParseBucketKey(key);
    if (i == util::LogHistogram::kBuckets || i < next || count == 0) {
      return false;
    }
    (*out)[i] = count;
    next = i + 1;
  } while (c.Consume(','));
  return c.Consume('}');
}

// Parses {"count": n, "sum": s, "buckets": {...}}; each key exactly
// once, and the bucket counts must add up to `count`.
bool ParseHistogramObject(Cursor& c, util::LogHistogram* out) {
  if (!c.Consume('{')) {
    return false;
  }
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, util::LogHistogram::kBuckets> buckets{};
  bool has_count = false;
  bool has_sum = false;
  bool has_buckets = false;
  do {
    std::string key;
    if (!ParseStringToken(c, &key) || !c.Consume(':')) {
      return false;
    }
    bool ok = false;
    if (key == "count" && !has_count) {
      ok = has_count = ParseUint(c, &count);
    } else if (key == "sum" && !has_sum) {
      ok = has_sum = ParseUint(c, &sum);
    } else if (key == "buckets" && !has_buckets) {
      ok = has_buckets = ParseBuckets(c, &buckets);
    }
    if (!ok) {
      return false;
    }
  } while (c.Consume(','));
  if (!c.Consume('}') || !has_count || !has_sum || !has_buckets) {
    return false;
  }
  uint64_t total = 0;
  for (uint64_t n : buckets) {
    if (n > UINT64_MAX - total) {
      return false;
    }
    total += n;
  }
  if (total != count) {
    return false;
  }
  *out = util::LogHistogram(buckets, sum);
  return true;
}

bool ParseHistogramMap(Cursor& c, std::map<std::string, util::LogHistogram>* out) {
  if (!c.Consume('{')) {
    return false;
  }
  if (c.Consume('}')) {
    return true;
  }
  do {
    std::string key;
    util::LogHistogram h;
    if (!ParseStringToken(c, &key) || !c.Consume(':') || !ParseHistogramObject(c, &h)) {
      return false;
    }
    out->insert_or_assign(std::move(key), h);
  } while (c.Consume(','));
  return c.Consume('}');
}

std::string FormatNs(double ns) {
  char buf[32];
  if (ns >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  }
  return buf;
}

}  // namespace

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string ToJson(const MetricsSnapshot& snapshot) {
  std::string out;
  out += "{\n  \"schema\": \"whodunit-metrics\",\n  \"version\": " +
         std::to_string(kSchemaVersion) + ",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    out += JsonString(name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    out += JsonString(name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    out += JsonString(name);
    out += ": {\"count\": " + std::to_string(h.count());
    out += ", \"sum\": " + std::to_string(h.sum()) + ", \"buckets\": {";
    const char* sep = "";
    for (size_t i = 0; i < util::LogHistogram::kBuckets; ++i) {
      if (h.buckets()[i] != 0) {
        out += sep;
        out += '"';
        out += std::to_string(util::LogHistogram::BucketLowerBound(i));
        out += "\": ";
        out += std::to_string(h.buckets()[i]);
        sep = ", ";
      }
    }
    out += "}}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

bool ParseJson(std::string_view json, MetricsSnapshot* out) {
  Cursor c{json};
  if (!c.Consume('{')) {
    return false;
  }
  bool version_ok = false;
  if (!c.Peek('}')) {
    do {
      std::string key;
      if (!ParseStringToken(c, &key) || !c.Consume(':')) {
        return false;
      }
      if (key == "schema") {
        std::string schema;
        if (!ParseStringToken(c, &schema) || schema != "whodunit-metrics") {
          return false;
        }
      } else if (key == "version") {
        uint64_t version = 0;
        if (!ParseUint(c, &version) || version != kSchemaVersion) {
          return false;
        }
        version_ok = true;
      } else if (key == "counters") {
        if (!ParseUintMap(c, &out->counters)) {
          return false;
        }
      } else if (key == "gauges") {
        if (!ParseIntMap(c, &out->gauges)) {
          return false;
        }
      } else if (key == "histograms") {
        if (!ParseHistogramMap(c, &out->histograms)) {
          return false;
        }
      } else {
        return false;
      }
    } while (c.Consume(','));
  }
  return c.Consume('}') && version_ok;
}

std::string RenderText(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "--- counters ---\n";
  for (const auto& [name, value] : snapshot.counters) {
    out << "  " << name << " = " << value << "\n";
  }
  out << "--- gauges ---\n";
  for (const auto& [name, value] : snapshot.gauges) {
    out << "  " << name << " = " << value << "\n";
  }
  out << "--- histograms ---\n";
  for (const auto& [name, h] : snapshot.histograms) {
    // Only *_ns histograms carry time units; depth histograms are counts.
    const bool is_ns = name.size() >= 3 && name.compare(name.size() - 3, 3, "_ns") == 0;
    auto fmt = [is_ns](double v) {
      if (is_ns) {
        return FormatNs(v);
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", v);
      return std::string(buf);
    };
    out << "  " << name << ": count=" << h.count() << " mean=" << fmt(h.mean())
        << " p50=" << fmt(h.Quantile(0.5)) << " p99=" << fmt(h.Quantile(0.99)) << "\n";
  }
  return out.str();
}

bool DumpGlobalMetrics(const std::string& path) {
  const MetricsSnapshot snapshot = Registry().Snapshot();
  std::ofstream out(path);
  out << ToJson(snapshot);
  if (!out) {
    std::fprintf(stderr, "cannot write metrics dump %s\n", path.c_str());
    return false;
  }
  const std::vector<std::string> violated = CheckLaws(snapshot);
  for (const std::string& law : violated) {
    std::fprintf(stderr, "metrics law violated in %s: %s\n", path.c_str(), law.c_str());
  }
  return violated.empty();
}

}  // namespace whodunit::obs
