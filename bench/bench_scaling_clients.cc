// Million-client DES scaling: the event scheduler + arena-pooled
// events + open-loop arrival generators, measured end to end.
//
// Open-loop TPC-W sweep: Poisson arrivals from 1k to 1M logical
// clients (~1 generator coroutine per 10k clients), stage cores and
// worker pools provisioned proportionally to offered load so the
// variable under test is population size. Per-client heap must stay
// flat: bytes_per_client at the top scale must be <= 1.1x its
// 10k-client value, asserted here and gated again in
// scripts/check_perf.sh via derived.bytes_per_client.
//
// $BENCH_SCALING_MAX_CLIENTS caps the sweep (default 1000000; CI runs
// 100000 to keep the gate fast — scripts/check_perf.sh).
// $BENCH_SCALING_SCALES (comma-separated client counts) replaces the
// sweep entirely — a bisection tool, not a baseline configuration.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/bookstore/bookstore.h"
#include "src/obs/metrics.h"
#include "src/sim/time.h"
#include "src/util/arena.h"

namespace {

using namespace whodunit;

// Samples the process heap while the simulation runs and keeps the
// high-water mark; mallinfo2 behind util::ApproxHeapBytes() reports
// live malloc'd bytes, which is what must stay proportional to the
// in-flight work, not to the client population.
class HeapWatermark {
 public:
  explicit HeapWatermark(std::chrono::milliseconds period)
      : peak_(util::ApproxHeapBytes()), sampler_([this, period] {
          while (!stop_.load(std::memory_order_relaxed)) {
            Sample();
            std::this_thread::sleep_for(period);
          }
        }) {}
  ~HeapWatermark() {
    stop_.store(true, std::memory_order_relaxed);
    sampler_.join();
  }
  uint64_t peak() {
    Sample();
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  void Sample() {
    const uint64_t now = util::ApproxHeapBytes();
    uint64_t prev = peak_.load(std::memory_order_relaxed);
    while (now > prev &&
           !peak_.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
    }
  }
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> peak_;
  std::thread sampler_;
};

struct ScalePoint {
  uint64_t clients = 0;
  double duration_s = 0;
  double wall_s = 0;
  uint64_t interactions = 0;
  uint64_t sim_events = 0;
  uint64_t peak_queue_depth = 0;
  uint64_t heap_used_bytes = 0;
  double bytes_per_client = 0;
  double events_per_sec = 0;
  double db_utilization = 0;
  double tomcat_utilization = 0;
  double proxy_utilization = 0;
};

ScalePoint RunScale(uint64_t clients) {
  apps::BookstoreOptions o;
  o.clients = static_cast<int>(clients);
  o.arrivals.kind = workload::ArrivalKind::kPoisson;
  o.sample_rate = bench::BenchSampleRate();
  // The §8.4 tuned configuration: row locks + servlet caching. The
  // untuned config hits the paper's Figure 11 pathology (exclusive
  // item-table locks serialize the DB at a few hundred tps), which
  // would measure the bottleneck, not the engine.
  o.item_granularity = db::LockGranularity::kRowLocks;
  o.servlet_caching = true;
  // Keep the interaction count comparable across scales: offered load
  // grows with the population, so the window shrinks.
  const double dur_s =
      std::clamp(140000.0 / static_cast<double>(clients), 4.0, 60.0);
  o.duration = sim::Seconds(static_cast<int64_t>(std::llround(dur_s)));
  o.warmup = o.duration / 5;
  // Provision stages proportionally to offered load (clients / think
  // time): the §8.4 one-box calibration saturates around a hundred
  // closed-loop clients, so scale cores and worker pools linearly from
  // there. The variable under test is the population, not saturation.
  const int cores = static_cast<int>(std::max<uint64_t>(2, clients / 25));
  o.proxy_cores = o.tomcat_cores = o.db_cores = cores;
  // Workers hold their slot across downstream round trips (a tomcat
  // worker waits out its DB query), so pool capacity — not CPU — is
  // the first ceiling; provision it with headroom.
  const int workers = static_cast<int>(std::max<uint64_t>(24, clients / 16));
  o.proxy_workers = o.tomcat_workers = o.db_workers = workers;

  // Release the previous scale's cached arena blocks so each point
  // measures its own footprint, not its predecessor's high-water mark.
  util::ArenaPool::ThisThread().Trim();
  const uint64_t base_heap = util::ApproxHeapBytes();

  ScalePoint p;
  p.clients = clients;
  p.duration_s = dur_s;
  {
    // Small scales finish in a fraction of a second, so they need a
    // fine sampling period to catch the transient peak; the big scales
    // run for seconds and mallinfo2 gets expensive there (it contends
    // with the mutator on the malloc lock), so back off to 10ms.
    HeapWatermark watermark(
        std::chrono::milliseconds(clients <= 100000 ? 1 : 10));
    const auto start = std::chrono::steady_clock::now();
    const apps::BookstoreResult result = apps::RunBookstore(o);
    const auto end = std::chrono::steady_clock::now();
    p.wall_s = std::chrono::duration<double>(end - start).count();
    p.interactions = result.interactions;
    p.sim_events = result.sim_events;
    p.peak_queue_depth = result.peak_event_queue_depth;
    p.db_utilization = result.db_utilization;
    p.tomcat_utilization = result.tomcat_utilization;
    p.proxy_utilization = result.proxy_utilization;
    const uint64_t peak = watermark.peak();
    p.heap_used_bytes = peak > base_heap ? peak - base_heap : 0;
  }
  p.bytes_per_client =
      static_cast<double>(p.heap_used_bytes) / static_cast<double>(clients);
  p.events_per_sec =
      p.wall_s > 0 ? static_cast<double>(p.sim_events) / p.wall_s : 0;
  return p;
}

// The sub-second scale points are the flat-memory gate's denominator,
// and their absolute heap delta is a few MB — small enough that
// watermark jitter between runs can move the ratio. They are also
// nearly free to repeat, so measure them as the median-of-three by
// bytes_per_client. The big points are single-trial: their peak is
// integrated over seconds and is stable run to run.
ScalePoint MeasureScale(uint64_t clients) {
  const int trials = clients <= 10000 ? 3 : 1;
  std::vector<ScalePoint> runs;
  runs.reserve(static_cast<size_t>(trials));
  for (int i = 0; i < trials; ++i) {
    runs.push_back(RunScale(clients));
  }
  std::sort(runs.begin(), runs.end(),
            [](const ScalePoint& a, const ScalePoint& b) {
              return a.bytes_per_client < b.bytes_per_client;
            });
  return runs[runs.size() / 2];
}

// Client counts below the sweep's first point, or beyond what
// BookstoreOptions::clients holds, are rejected (bench_util.h).
uint64_t ParseClients(const char* name, std::string_view text) {
  return static_cast<uint64_t>(bench::ParseEnvInt(name, text, 1000, INT_MAX));
}

uint64_t MaxClients() {
  const char* v = std::getenv("BENCH_SCALING_MAX_CLIENTS");
  if (v == nullptr || v[0] == '\0') {
    return 1000000;
  }
  return ParseClients("BENCH_SCALING_MAX_CLIENTS", v);
}

int RunSweep() {
  const uint64_t max_clients = MaxClients();
  std::vector<uint64_t> scales;
  // $BENCH_SCALING_SCALES (comma-separated client counts) overrides
  // the default sweep — for bisecting scaling behavior, not baselines.
  if (const char* override = std::getenv("BENCH_SCALING_SCALES");
      override != nullptr && override[0] != '\0') {
    std::string_view rest(override);
    while (true) {
      const size_t comma = rest.find(',');
      scales.push_back(
          ParseClients("BENCH_SCALING_SCALES", rest.substr(0, comma)));
      if (comma == std::string_view::npos) {
        break;
      }
      rest.remove_prefix(comma + 1);
    }
  }
  if (scales.empty()) {
    for (uint64_t n : {1000ULL, 10000ULL, 100000ULL, 1000000ULL}) {
      if (n <= max_clients) {
        scales.push_back(n);
      }
    }
  }

  bench::Header(
      "Open-loop client scaling: Poisson arrivals, arena-pooled events.\n"
      "Per-client heap must stay flat.");
  std::printf("%9s | %6s | %8s | %10s | %11s | %8s | %9s | %9s | %s\n",
              "clients", "dur s", "wall s", "interact", "sim events", "Mev/s",
              "peak q", "B/client", "util p/t/db");
  std::printf(
      "----------+--------+----------+------------+-------------+----------+-"
      "----------+-----------+------------\n");

  std::vector<ScalePoint> points;
  for (uint64_t n : scales) {
    points.push_back(MeasureScale(n));
    const ScalePoint& p = points.back();
    std::printf("%9" PRIu64 " | %6.0f | %8.2f | %10" PRIu64 " | %11" PRIu64
                " | %8.2f | %9" PRIu64 " | %9.1f | %.2f/%.2f/%.2f\n",
                p.clients, p.duration_s, p.wall_s, p.interactions, p.sim_events,
                p.events_per_sec / 1e6, p.peak_queue_depth, p.bytes_per_client,
                p.proxy_utilization, p.tomcat_utilization, p.db_utilization);
  }

  // Export the headline numbers for run_benches.sh / check_perf.sh.
  auto& reg = obs::Registry();
  const ScalePoint& top = points.back();
  reg.GetGauge("bench.scaling.max_clients")
      .Set(static_cast<int64_t>(top.clients));
  reg.GetGauge("bench.scaling.events_per_sec")
      .Set(static_cast<int64_t>(std::llround(top.events_per_sec)));
  reg.GetGauge("bench.scaling.bytes_per_client_max")
      .Set(static_cast<int64_t>(std::llround(top.bytes_per_client)));

  const ScalePoint* ten_k = nullptr;
  for (const ScalePoint& p : points) {
    if (p.clients == 10000) {
      ten_k = &p;
    }
  }
  int rc = 0;
  if (ten_k != nullptr) {
    reg.GetGauge("bench.scaling.bytes_per_client_10k")
        .Set(static_cast<int64_t>(std::llround(ten_k->bytes_per_client)));
    if (top.clients > ten_k->clients) {
      const double ratio = top.bytes_per_client / ten_k->bytes_per_client;
      std::printf(
          "\nper-client heap at %" PRIu64 " clients = %.2fx the 10k value "
          "(must be <= 1.10x)\n",
          top.clients, ratio);
      if (ratio > 1.10) {
        std::fprintf(stderr,
                     "FAIL: per-client memory grew with the population "
                     "(%.1f B/client at %" PRIu64 " vs %.1f B/client at 10k)\n",
                     top.bytes_per_client, top.clients,
                     ten_k->bytes_per_client);
        rc = 1;
      }
    }
  }
  bench::Note(
      "\nClaim: open-loop memory tracks in-flight work, not population;"
      "\nthe sweep's bytes/client column must not grow with the scale.");
  return rc;
}

}  // namespace

int main() {
  const int rc = RunSweep();
  whodunit::bench::DumpMetrics("scaling_clients");
  return rc;
}
