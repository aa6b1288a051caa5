// Self-observability: JSON export of metrics.
//
// The export is what crosses the process boundary: benches dump
// `BENCH_<name>.metrics.json` at exit so result trajectories carry
// the profiler's internal counters next to the wall-clock numbers,
// and `examples/offline_report` re-reads a dump and renders it. The
// schema (docs/METRICS.md) is deliberately small — flat maps of
// counters and gauges and log-bucketed histograms — and ParseJson
// understands exactly that subset, so the round trip needs no
// external JSON dependency.
#ifndef SRC_OBS_EXPORT_H_
#define SRC_OBS_EXPORT_H_

#include <string>
#include <string_view>

#include "src/obs/metrics.h"

namespace whodunit::obs {

// `s` as a JSON string literal: quoted, with `"`, `\` and control
// characters escaped. The metrics dump and every live export
// (src/obs/live) write strings through it.
std::string JsonString(std::string_view s);

// Serializes a snapshot as schema-version-3 JSON.
std::string ToJson(const MetricsSnapshot& snapshot);

// Parses JSON produced by ToJson. Returns false on malformed input
// (including out-of-range numbers) or on a wrong schema or version.
bool ParseJson(std::string_view json, MetricsSnapshot* out);

// Human-readable rendering of a snapshot (one instrument per line,
// histograms with percentile estimates) for reports and examples.
std::string RenderText(const MetricsSnapshot& snapshot);

// Snapshots the global Registry(), writes the JSON dump to `path` and
// checks CheckLaws on it. Returns false, after saying why on stderr,
// if the file could not be written or a law is violated (the dump is
// still written, for diagnosis).
bool DumpGlobalMetrics(const std::string& path);

}  // namespace whodunit::obs

#endif  // SRC_OBS_EXPORT_H_
