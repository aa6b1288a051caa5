// perfbench harness: runs one benchmark workload through the apps'
// public entry points (apps::RunBookstore, RunMinihttpd, RunMiniproxy,
// RunSedaServer) and prints one JSON line per repetition.
//
//   perfbench_harness --workload W --seed N --arm A
//                     [--budget-s S] [--spans] [--probe]
//
// Each repetition ("rep") simulates a fixed amount of traffic inside a
// fresh sim::ShardEnv (private metrics registry, context tree, trace
// ring, symbol table), so every rep of a process starts from the same
// state and produces the same simulated outputs. Rep 0 is a warm-up;
// at least two more follow, and more until the wall budget is spent. A rep line carries the
// host cost (wall, user+sys CPU, peak RSS so far), the completed
// transaction count, the simulated outputs the output check compares,
// and the rep's registry snapshot. perfbench/run.py turns the lines
// into metrics; this file only measures and reports.
//
// --probe prints the steady-clock time of the first app call and exits
// before making it (the set-up time probe). --spans records one span
// per rep and per app call, with their parents, and prints them on the
// rep line (the traced run).
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "src/apps/bookstore/bookstore.h"
#include "src/apps/minihttpd/minihttpd.h"
#include "src/apps/miniproxy/miniproxy.h"
#include "src/apps/sedaserver/sedaserver.h"
#include "src/obs/metrics.h"
#include "src/sim/parallel_runner.h"

namespace {

namespace apps = whodunit::apps;
namespace sim = whodunit::sim;
using whodunit::callpath::ProfilerMode;

// Ablation arms: the profiler ladder kNone -> kCsprof -> kWhodunit,
// plus kWhodunit without the live daemon for the workload that runs
// one. "whodunit" is the configuration the end-to-end metrics use.
enum class Arm { kNone, kCsprof, kWhodunitNoLive, kWhodunit };

bool ParseArm(std::string_view s, Arm* out) {
  if (s == "none") {
    *out = Arm::kNone;
  } else if (s == "csprof") {
    *out = Arm::kCsprof;
  } else if (s == "whodunit_nolive") {
    *out = Arm::kWhodunitNoLive;
  } else if (s == "whodunit") {
    *out = Arm::kWhodunit;
  } else {
    return false;
  }
  return true;
}

ProfilerMode ModeOf(Arm arm) {
  switch (arm) {
    case Arm::kNone:
      return ProfilerMode::kNone;
    case Arm::kCsprof:
      return ProfilerMode::kCsprof;
    default:
      return ProfilerMode::kWhodunit;
  }
}

uint64_t SteadyNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Host user+sys CPU seconds and peak RSS (KiB) of this process.
struct HostUsage {
  double cpu_s = 0;
  long maxrss_kb = 0;
};

HostUsage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime), ru.ru_maxrss};
}

// FNV-1a 64: the profile-text digest the output check pins.
uint64_t Fnv1a(std::string_view text, uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : text) {
    h = (h ^ c) * 1099511628211ULL;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016" PRIx64 "\"", v);
  return buf;
}

// Shortest text that parses back to exactly `v`.
std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Num(uint64_t v) { return std::to_string(v); }
std::string Bool(bool v) { return v ? "true" : "false"; }

// The CPUs this process may run on. Reps rotate over them, so a run
// samples every CPU it was given instead of staying on whichever one
// it started on; on a shared host their speeds differ.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
  return cpus;
}

void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

struct Span {
  std::string name;
  int parent = -1;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Spans recorded by the harness around its calls into the program.
// Kept in memory and printed with the rep that produced them.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int Begin(std::string name, int parent) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back({std::move(name), parent, SteadyNs(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id >= 0) {
      spans_[static_cast<size_t>(id)].end_ns = SteadyNs();
    }
  }
  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// One rep's simulated outputs: the transaction count plus named JSON
// values for the output check.
struct RepOutput {
  uint64_t txns = 0;
  std::vector<std::pair<std::string, std::string>> fields;
  void Add(std::string name, std::string json) {
    fields.emplace_back(std::move(name), std::move(json));
  }
};

struct Workload {
  const char* name;
  RepOutput (*run)(uint64_t seed, Arm arm, SpanLog& log, int parent);
};

// Calls `fn` inside a span named after the app entry point.
template <typename Fn>
auto InSpan(SpanLog& log, int parent, const char* name, Fn&& fn) {
  const int id = log.Begin(name, parent);
  auto result = fn();
  log.End(id);
  return result;
}

void AddBookstoreFields(const apps::BookstoreResult& r, RepOutput* out) {
  out->txns = r.interactions;
  out->Add("throughput_tpm", Num(r.throughput_tpm));
  out->Add("interactions", Num(r.interactions));
  out->Add("profile_digest",
           Hex(Fnv1a(r.stitched_text, Fnv1a(r.crosstalk_text, Fnv1a(r.db_profile_text)))));
  out->Add("live_digest", Hex(Fnv1a(r.live_top_text)));
  out->Add("db_shm_flows", Num(r.db_shm_flows));
  out->Add("sim_events", Num(r.sim_events));
  out->Add("peak_event_queue_depth", Num(r.peak_event_queue_depth));
}

// Figure 12's peak: browsing mix, 400 closed-loop clients, servlet
// caching, item-table locks.
RepOutput RunTpcwClosed(uint64_t seed, Arm arm, SpanLog& log, int parent) {
  apps::BookstoreOptions o;
  o.mode = ModeOf(arm);
  o.clients = 400;
  o.servlet_caching = true;
  o.item_granularity = whodunit::db::LockGranularity::kTableLocks;
  o.duration = sim::Seconds(600);
  o.warmup = sim::Seconds(60);
  o.seed = seed;
  RepOutput out;
  AddBookstoreFields(InSpan(log, parent, "apps::RunBookstore", [&] { return apps::RunBookstore(o); }),
                     &out);
  return out;
}

// The always-on path: 100k open-loop Poisson clients, row locks,
// caching, 1% sampling, live daemon with attribution. Stage capacity
// is provisioned as in bench_scaling_clients (clients/25 cores,
// clients/16 workers per stage).
RepOutput RunTpcwOpenSampled(uint64_t seed, Arm arm, SpanLog& log, int parent) {
  constexpr int kClients = 100000;
  apps::BookstoreOptions o;
  o.mode = ModeOf(arm);
  o.clients = kClients;
  o.arrivals.kind = whodunit::workload::ArrivalKind::kPoisson;
  o.item_granularity = whodunit::db::LockGranularity::kRowLocks;
  o.servlet_caching = true;
  o.proxy_cores = o.tomcat_cores = o.db_cores = kClients / 25;
  o.proxy_workers = o.tomcat_workers = o.db_workers = kClients / 16;
  o.duration = sim::Seconds(2);
  o.warmup = sim::Millis(400);
  o.sample_rate = 0.01;
  o.live = arm == Arm::kWhodunit;
  o.live_attribution = true;
  o.seed = seed;
  RepOutput out;
  AddBookstoreFields(InSpan(log, parent, "apps::RunBookstore", [&] { return apps::RunBookstore(o); }),
                     &out);
  return out;
}

// §9.2's shared-memory path: 64 closed-loop clients reconnecting every
// few requests through the listener -> ap_queue -> worker handoff.
RepOutput RunHttpdChurn(uint64_t seed, Arm arm, SpanLog& log, int parent) {
  apps::MinihttpdOptions o;
  o.mode = ModeOf(arm);
  o.workers = 8;
  o.clients = 64;
  o.duration = sim::Seconds(10);
  o.seed = seed;
  const apps::MinihttpdResult r =
      InSpan(log, parent, "apps::RunMinihttpd", [&] { return apps::RunMinihttpd(o); });
  RepOutput out;
  out.txns = r.requests;
  out.Add("throughput_mbps", Num(r.throughput_mbps));
  out.Add("requests", Num(r.requests));
  out.Add("connections", Num(r.connections));
  out.Add("profile_digest", Hex(Fnv1a(r.profile_text)));
  out.Add("flows_detected", Num(r.flows_detected));
  out.Add("queue_flow_detected", Bool(r.queue_flow_detected));
  out.Add("critical_sections_emulated", Num(r.critical_sections_emulated));
  return out;
}

// §9.3's pair: the event-driven proxy, then the SEDA server, with their
// default client counts.
RepOutput RunProxySeda(uint64_t seed, Arm arm, SpanLog& log, int parent) {
  apps::MiniproxyOptions po;
  po.mode = ModeOf(arm);
  po.duration = sim::Seconds(20);
  po.seed = seed;
  const apps::MiniproxyResult p =
      InSpan(log, parent, "apps::RunMiniproxy", [&] { return apps::RunMiniproxy(po); });
  apps::SedaServerOptions so;
  so.mode = ModeOf(arm);
  so.duration = sim::Seconds(20);
  so.seed = seed;
  const apps::SedaServerResult s =
      InSpan(log, parent, "apps::RunSedaServer", [&] { return apps::RunSedaServer(so); });
  RepOutput out;
  out.txns = p.requests + s.requests;
  out.Add("proxy_throughput_mbps", Num(p.throughput_mbps));
  out.Add("proxy_requests", Num(p.requests));
  out.Add("proxy_profile_digest", Hex(Fnv1a(p.profile_text)));
  out.Add("write_handler_context_count", Num(static_cast<uint64_t>(p.write_handler_context_count)));
  out.Add("seda_throughput_mbps", Num(s.throughput_mbps));
  out.Add("seda_requests", Num(s.requests));
  out.Add("seda_profile_digest", Hex(Fnv1a(s.profile_text)));
  out.Add("write_stage_context_count", Num(static_cast<uint64_t>(s.write_stage_context_count)));
  return out;
}

constexpr Workload kWorkloads[] = {
    {"tpcw_closed", RunTpcwClosed},
    {"httpd_churn", RunHttpdChurn},
    {"tpcw_open_sampled", RunTpcwOpenSampled},
    {"proxy_seda", RunProxySeda},
};

void PrintRep(int rep, double wall_s, double cpu_s, const HostUsage& usage, const RepOutput& out,
              const whodunit::obs::MetricsSnapshot& snap, const SpanLog& log) {
  std::string line = "{\"rep\":" + std::to_string(rep) + ",\"wall_s\":" + Num(wall_s) +
                     ",\"cpu_s\":" + Num(cpu_s) + ",\"txns\":" + Num(out.txns) +
                     ",\"maxrss_kb\":" + std::to_string(usage.maxrss_kb) + ",\"out\":{";
  const char* sep = "";
  for (const auto& [name, json] : out.fields) {
    line += sep;
    line += "\"" + name + "\":" + json;
    sep = ",";
  }
  line += "},\"counters\":{";
  sep = "";
  for (const auto& [name, v] : snap.counters) {
    line += sep;
    line += "\"" + name + "\":" + Num(v);
    sep = ",";
  }
  line += "},\"gauges\":{";
  sep = "";
  for (const auto& [name, v] : snap.gauges) {
    line += sep;
    line += "\"" + name + "\":" + std::to_string(v);
    sep = ",";
  }
  line += "},\"spans\":[";
  sep = "";
  for (const Span& s : log.spans()) {
    line += sep;
    line += "{\"name\":\"" + s.name + "\",\"parent\":" + std::to_string(s.parent) +
            ",\"start_ns\":" + Num(s.start_ns) + ",\"end_ns\":" + Num(s.end_ns) + "}";
    sep = ",";
  }
  line += "]}\n";
  std::fputs(line.c_str(), stdout);
  std::fflush(stdout);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness --workload W --seed N --arm "
               "none|csprof|whodunit_nolive|whodunit [--budget-s S] [--spans] [--probe]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  Arm arm = Arm::kWhodunit;
  double budget_s = 0;
  bool spans = false;
  bool probe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--spans") {
      spans = true;
    } else if (a == "--probe") {
      probe = true;
    } else if (!has_value) {
      return Usage("missing value");
    } else if (a == "--workload") {
      const std::string_view v = argv[++i];
      for (const Workload& w : kWorkloads) {
        if (v == w.name) {
          workload = &w;
        }
      }
      if (workload == nullptr) {
        return Usage("unknown workload");
      }
    } else if (a == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--arm") {
      if (!ParseArm(argv[++i], &arm)) {
        return Usage("unknown arm");
      }
    } else if (a == "--budget-s") {
      budget_s = std::strtod(argv[++i], nullptr);
    } else {
      return Usage("unknown flag");
    }
  }
  if (workload == nullptr) {
    return Usage("--workload is required");
  }

  SpanLog log(spans);
  const std::vector<int> cpus = AllowedCpus();
  const uint64_t start_ns = SteadyNs();
  for (int rep = 0;; ++rep) {
    if (!cpus.empty() && !probe) {
      PinTo(cpus[static_cast<size_t>(rep) % cpus.size()]);
    }
    sim::ShardEnv env;
    const HostUsage before = ReadUsage();
    const uint64_t t0 = SteadyNs();
    if (probe) {
      std::printf("{\"first_app_call_ns\":%" PRIu64 "}\n", t0);
      return 0;
    }
    const int rep_span = log.Begin("rep", -1);
    RepOutput out;
    {
      sim::ShardEnv::Scope scope(env);
      out = workload->run(seed, arm, log, rep_span);
    }
    const uint64_t t1 = SteadyNs();
    const HostUsage after = ReadUsage();
    const whodunit::obs::MetricsSnapshot snap =
        InSpan(log, rep_span, "obs::MetricsRegistry::Snapshot", [&] { return env.metrics().Snapshot(); });
    log.End(rep_span);
    PrintRep(rep, static_cast<double>(t1 - t0) * 1e-9, after.cpu_s - before.cpu_s, after, out,
             snap, log);
    log.Clear();
    // Rep 0 is the warm-up; stop once the budget would be overrun by
    // another rep as long as the last one was.
    const double elapsed_s = static_cast<double>(SteadyNs() - start_ns) * 1e-9;
    const double last_s = static_cast<double>(t1 - t0) * 1e-9;
    if (rep >= 2 && elapsed_s + last_s > budget_s) {
      break;
    }
  }
  return 0;
}
