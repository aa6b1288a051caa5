#include "src/obs/metrics.h"

namespace whodunit::obs {

namespace internal {
std::atomic<size_t> g_next_shard{0};
}  // namespace internal

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s.v.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (auto& s : shards_) {
    s.v.store(0, std::memory_order_relaxed);
  }
}

util::LogHistogram Histogram::Snapshot() const {
  std::array<uint64_t, util::LogHistogram::kBuckets> counts{};
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return util::LogHistogram(counts, sum_.load(std::memory_order_relaxed));
}

void Histogram::Merge(const util::LogHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (other.buckets()[i] != 0) {
      buckets_[i].fetch_add(other.buckets()[i], std::memory_order_relaxed);
    }
  }
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
}

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
