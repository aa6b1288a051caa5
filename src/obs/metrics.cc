#include "src/obs/metrics.h"

namespace whodunit::obs {

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->Value();
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms.emplace(name, hist->Snapshot());
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [name, hist] : histograms_) {
    hist->Reset();
  }
}

void MetricsRegistry::MergeFrom(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    GetCounter(name).Add(value);
  }
  for (const auto& [name, value] : other.gauges) {
    GetGauge(name).Add(value);
  }
  for (const auto& [name, hist] : other.histograms) {
    GetHistogram(name).Merge(hist);
  }
}

std::vector<std::string> CheckLaws(const MetricsSnapshot& snapshot) {
  const auto counter = [&snapshot](const char* name) -> uint64_t {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  const auto gauge = [&snapshot](const char* name) -> int64_t {
    const auto it = snapshot.gauges.find(name);
    return it == snapshot.gauges.end() ? 0 : it->second;
  };
  std::vector<std::string> violated;
  const auto law = [&violated](bool holds, const char* what, uint64_t lhs, uint64_t rhs) {
    if (!holds) {
      violated.push_back(std::string(what) + " (" + std::to_string(lhs) + " vs " +
                         std::to_string(rhs) + ")");
    }
  };

  const uint64_t executed = counter("sim.events_executed");
  const uint64_t scheduled = counter("sim.events_scheduled");
  law(executed <= scheduled, "sim.events_executed <= sim.events_scheduled", executed, scheduled);

  const uint64_t sampled = counter("sampling.txns_sampled");
  const uint64_t total = counter("sampling.txns_total");
  law(sampled <= total, "sampling.txns_sampled <= sampling.txns_total", sampled, total);

  // Every cache run with a detector attached is one critical section;
  // the detector also counts sections it runs without the cache.
  const uint64_t lookups = counter("shm.section_cache.hits") + counter("shm.section_cache.misses");
  const uint64_t sections = counter("shm.critical_sections");
  law(lookups <= sections, "shm.section_cache.hits + misses <= shm.critical_sections", lookups,
      sections);

  const uint64_t begun = counter("live.txns_begun");
  const uint64_t published = counter("live.txns_published");
  const uint64_t settled = published + counter("live.txns_abandoned") +
                           static_cast<uint64_t>(gauge("live.inflight_txns"));
  law(begun == settled,
      "live.txns_begun == live.txns_published + live.txns_abandoned + live.inflight_txns", begun,
      settled);

  const uint64_t ingested = counter("live.txns_ingested");
  law(ingested == published, "live.txns_ingested == live.txns_published", ingested, published);
  return violated;
}

namespace {

// The calling thread's Registry() target; null means the process-wide
// default. A raw thread-local pointer (not a reference into a
// function-local static) so shard threads can be redirected and
// restored without any synchronization.
thread_local MetricsRegistry* current_registry = nullptr;

}  // namespace

MetricsRegistry& GlobalRegistry() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry& Registry() {
  MetricsRegistry* reg = current_registry;
  return reg != nullptr ? *reg : GlobalRegistry();
}

ScopedMetricsRegistry::ScopedMetricsRegistry(MetricsRegistry& registry)
    : prev_(current_registry) {
  current_registry = &registry;
}

ScopedMetricsRegistry::~ScopedMetricsRegistry() { current_registry = prev_; }

}  // namespace whodunit::obs
