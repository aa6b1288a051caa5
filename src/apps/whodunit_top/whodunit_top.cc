// whodunit_top: a `top`-style console for the live observability
// daemon (docs/OBSERVABILITY.md).
//
// Runs the TPC-W bookstore with a whodunitd daemon attached and
// renders the daemon's top-transactions table every poll interval of
// *virtual* time — latency quantiles and error counts per transaction
// type, per-stage throughput, the live crosstalk matrix, and the most
// expensive transaction contexts. On exit it prints the final
// snapshot and can dump the retained transactions as Chrome trace
// JSON (load in chrome://tracing or https://ui.perfetto.dev).
//
// Usage:
//   whodunit_top [--duration S] [--warmup S] [--clients N]
//                [--interval S] [--ring N] [--span-out FILE]
//                [--json-out FILE] [--no-clear] [--seed N]
//                [--shards S] [--threads T]
//                [--sample-rate R] [--sample-seed N] [--history-bytes B]
//                [--why-tail] [--attr-out FILE] [--no-attribution]
//
// --sample-rate R profiles a fraction R of transactions (the
// production-sampling knob, docs/PRODUCTION.md); the header then shows
// the sampled/total ratio. --history-bytes B bounds the daemon's
// retained-transaction store (oldest evicted first; 0 disables).
//
// --why-tail prints the p99-vs-p50 wait-state differential per
// transaction type (docs/OBSERVABILITY.md §tail diagnosis); --attr-out
// writes the whodunit-attr-v1 folded-stack attribution profile
// (docs/PROFILE_FORMAT.md) for flamegraph tooling; --no-attribution
// turns the critical-path attribution pass off entirely (the ablation
// knob measured by bench_ablation_live_obs).
//
// --shards S > 1 partitions the clients into S independent
// deployments run on --threads workers (sim::ParallelRunner) and
// prints the merged final snapshot; the periodic refresh is disabled
// (the live table callback is not shard-safe).
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/apps/bookstore/bookstore.h"
#include "src/callpath/profiler_mode.h"
#include "src/sim/time.h"

namespace {

struct Flags {
  long duration_s = 300;
  long warmup_s = 30;
  int clients = 100;
  long interval_s = 30;
  size_t ring = 128;
  std::string span_out;
  std::string json_out;
  bool clear_screen = true;
  uint64_t seed = 1;
  int shards = 1;
  int threads = 1;
  double sample_rate = 1.0;
  uint64_t sample_seed = 0;
  size_t history_bytes = 1 << 20;
  bool why_tail = false;
  std::string attr_out;
  bool attribution = true;
  whodunit::workload::ArrivalConfig arrivals;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--duration S] [--warmup S] [--clients N]\n"
               "          [--interval S] [--ring N] [--span-out FILE]\n"
               "          [--json-out FILE] [--no-clear] [--seed N]\n"
               "          [--shards S] [--threads T]\n"
               "          [--sample-rate R] [--sample-seed N] [--history-bytes B]\n"
               "          [--why-tail] [--attr-out FILE] [--no-attribution]\n"
               "          [--arrivals closed|poisson|bursty] [--offered-load TPS]\n",
               argv0);
}

// Whole-string numeric parses: trailing garbage, an empty string or an
// out-of-range value is an error, never a silent 0 or a partial read.
bool ParseLong(const char* s, long* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0) return false;
  *out = v;
  return true;
}

bool ParseInt(const char* s, int* out) {
  long v = 0;
  if (!ParseLong(s, &v) || v < INT_MIN || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

bool ParseUnsigned(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || std::strchr(s, '-') != nullptr) return false;
  *out = v;
  return true;
}

bool ParseDouble(const char* s, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno != 0) return false;
  *out = v;
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Value of a numeric flag; a missing or malformed value fails the
    // whole parse (reported below as a bad value).
    bool bad_value = false;
    const auto value = [&](auto parse, auto* out) {
      if (i + 1 >= argc || !parse(argv[i + 1], out)) {
        bad_value = true;
        return false;
      }
      ++i;
      return true;
    };
    long v = 0;
    int n = 0;
    uint64_t u = 0;
    double d = 0;
    if (arg == "--duration" && value(ParseLong, &v)) {
      flags->duration_s = v;
    } else if (arg == "--warmup" && value(ParseLong, &v)) {
      flags->warmup_s = v;
    } else if (arg == "--clients" && value(ParseInt, &n)) {
      flags->clients = n;
    } else if (arg == "--interval" && value(ParseLong, &v)) {
      flags->interval_s = v;
    } else if (arg == "--ring" && value(ParseUnsigned, &u)) {
      flags->ring = static_cast<size_t>(u);
    } else if (arg == "--seed" && value(ParseUnsigned, &u)) {
      flags->seed = u;
    } else if (arg == "--shards" && value(ParseInt, &n)) {
      flags->shards = n;
    } else if (arg == "--threads" && value(ParseInt, &n)) {
      flags->threads = n;
    } else if (arg == "--sample-rate" && value(ParseDouble, &d)) {
      flags->sample_rate = d;
    } else if (arg == "--sample-seed" && value(ParseUnsigned, &u)) {
      flags->sample_seed = u;
    } else if (arg == "--history-bytes" && value(ParseUnsigned, &u)) {
      flags->history_bytes = static_cast<size_t>(u);
    } else if (arg == "--why-tail") {
      flags->why_tail = true;
    } else if (arg == "--attr-out" && i + 1 < argc) {
      flags->attr_out = argv[++i];
    } else if (arg == "--no-attribution") {
      flags->attribution = false;
    } else if (arg == "--arrivals" && i + 1 < argc) {
      const std::string kind = argv[++i];
      if (!whodunit::workload::ParseArrivalKind(kind, &flags->arrivals.kind)) {
        std::fprintf(stderr, "bad --arrivals value: %s\n", kind.c_str());
        return false;
      }
    } else if (arg == "--offered-load" && value(ParseDouble, &d)) {
      flags->arrivals.offered_load_tps = d;
    } else if (arg == "--span-out" && i + 1 < argc) {
      flags->span_out = argv[++i];
    } else if (arg == "--json-out" && i + 1 < argc) {
      flags->json_out = argv[++i];
    } else if (arg == "--no-clear") {
      flags->clear_screen = false;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      std::exit(0);
    } else if (bad_value) {
      std::fprintf(stderr, "bad %s value: %s\n", arg.c_str(),
                   i + 1 < argc ? argv[i + 1] : "(missing)");
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(argv[0]);
      return false;
    }
  }
  // Ranges: a run needs time, clients and a positive refresh interval
  // (a zero interval would re-render forever at one virtual instant),
  // and the warm-up must end before the run does. A rate is a finite
  // fraction and a load a finite non-negative rate; the negated
  // comparisons also reject NaN.
  const char* bad = nullptr;
  if (flags->duration_s <= 0) {
    bad = "--duration must be positive";
  } else if (flags->interval_s <= 0) {
    bad = "--interval must be positive";
  } else if (flags->clients <= 0) {
    bad = "--clients must be positive";
  } else if (flags->shards <= 0) {
    bad = "--shards must be positive";
  } else if (flags->threads <= 0) {
    bad = "--threads must be positive";
  } else if (flags->warmup_s < 0 || flags->warmup_s >= flags->duration_s) {
    bad = "--warmup must be in [0, --duration)";
  } else if (!(flags->sample_rate >= 0.0 && flags->sample_rate <= 1.0)) {
    bad = "--sample-rate must be in [0, 1]";
  } else if (!(flags->arrivals.offered_load_tps >= 0.0 &&
               std::isfinite(flags->arrivals.offered_load_tps))) {
    bad = "--offered-load must be finite and non-negative";
  }
  if (bad != nullptr) {
    std::fprintf(stderr, "%s\n", bad);
    return false;
  }
  return true;
}

// Writes `body` to `path`; false (with a message) if the file cannot be
// opened or the bytes do not all reach it.
bool WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "whodunit_top: cannot open %s\n", path.c_str());
    return false;
  }
  const bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::fprintf(stderr, "whodunit_top: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  whodunit::apps::BookstoreOptions options;
  options.mode = whodunit::callpath::ProfilerMode::kWhodunit;
  options.clients = flags.clients;
  options.duration = whodunit::sim::Seconds(flags.duration_s);
  options.warmup = whodunit::sim::Seconds(flags.warmup_s);
  options.seed = flags.seed;
  options.live = true;
  options.sample_rate = flags.sample_rate;
  options.sample_seed = flags.sample_seed;
  options.live_history_bytes = flags.history_bytes;
  options.live_span_ring = flags.ring;
  options.live_attribution = flags.attribution;
  options.live_poll_interval = whodunit::sim::Seconds(flags.interval_s);
  options.shards = flags.shards;
  options.threads = flags.threads;
  options.arrivals = flags.arrivals;
  if (flags.shards > 1) {
    // RunBookstore ignores on_live_top when sharded; say so up front
    // rather than silently never refreshing.
    std::printf("[%d shards on %d threads: periodic refresh disabled, "
                "final merged snapshot only]\n",
                flags.shards, flags.threads);
  } else {
    options.on_live_top = [&flags](const std::string& table) {
      if (flags.clear_screen) {
        std::fputs("\x1b[H\x1b[2J", stdout);  // cursor home + clear
      }
      std::fputs(table.c_str(), stdout);
      std::fflush(stdout);
    };
  }

  const auto result = whodunit::apps::RunBookstore(options);

  if (flags.clear_screen) std::fputs("\x1b[H\x1b[2J", stdout);
  std::fputs(result.live_top_text.c_str(), stdout);
  if (flags.why_tail) {
    std::fputs(result.live_why_tail_text.c_str(), stdout);
  }
  std::printf("\n[run complete: %.0f interactions/min, %llu interactions]\n",
              result.throughput_tpm,
              static_cast<unsigned long long>(result.interactions));

  int rc = 0;
  if (!flags.attr_out.empty()) {
    if (WriteFile(flags.attr_out, result.live_attr_folded)) {
      std::printf("attribution profile written to %s (whodunit-attr-v1)\n",
                  flags.attr_out.c_str());
    } else {
      rc = 1;
    }
  }
  if (!flags.span_out.empty()) {
    if (WriteFile(flags.span_out, result.live_span_json)) {
      std::printf("spans written to %s (load in chrome://tracing)\n",
                  flags.span_out.c_str());
    } else {
      rc = 1;
    }
  }
  if (!flags.json_out.empty()) {
    if (WriteFile(flags.json_out, result.live_query_json)) {
      std::printf("query snapshot written to %s\n", flags.json_out.c_str());
    } else {
      rc = 1;
    }
  }
  return rc;
}
