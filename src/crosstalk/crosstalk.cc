#include "src/crosstalk/crosstalk.h"

#include <algorithm>
#include <sstream>

namespace whodunit::crosstalk {

void CrosstalkRecorder::OnAcquired(const sim::SimMutex& lock, uint64_t waiter_tag,
                                   uint64_t blocking_tag, sim::SimTime wait) {
  ++acquires_observed_;
  all_acquires_[waiter_tag].Add(static_cast<double>(wait));
  if (wait <= 0) {
    return;  // uncontended acquire: no interference
  }
  waiter_waits_[waiter_tag].Add(static_cast<double>(wait));
  lock_waits_[lock.name()].Add(static_cast<double>(wait));
  if (blocking_tag != kNoTag) {
    pair_waits_[{waiter_tag, blocking_tag}].Add(static_cast<double>(wait));
  }
}

void CrosstalkRecorder::OnReleased(const sim::SimMutex& /*lock*/, uint64_t /*holder_tag*/) {}

void CrosstalkRecorder::MergeFrom(const CrosstalkRecorder& other,
                                  const std::function<uint64_t(uint64_t)>& tag_remap) {
  const auto map_tag = [&](uint64_t tag) { return tag_remap ? tag_remap(tag) : tag; };
  for (const auto& [key, stat] : other.pair_waits_) {
    pair_waits_[{map_tag(key.first), map_tag(key.second)}].Merge(stat);
  }
  for (const auto& [tag, stat] : other.waiter_waits_) {
    waiter_waits_[map_tag(tag)].Merge(stat);
  }
  for (const auto& [tag, stat] : other.all_acquires_) {
    all_acquires_[map_tag(tag)].Merge(stat);
  }
  for (const auto& [name, stat] : other.lock_waits_) {
    lock_waits_[name].Merge(stat);
  }
  acquires_observed_ += other.acquires_observed_;
}

std::vector<uint64_t> CrosstalkRecorder::Tags() const {
  std::map<uint64_t, bool> seen;
  for (const auto& [key, stat] : pair_waits_) {
    seen[key.first] = true;
    seen[key.second] = true;
  }
  for (const auto& [tag, stat] : waiter_waits_) {
    seen[tag] = true;
  }
  for (const auto& [tag, stat] : all_acquires_) {
    seen[tag] = true;
  }
  std::vector<uint64_t> tags;
  tags.reserve(seen.size());
  for (const auto& [tag, unused] : seen) {
    tags.push_back(tag);
  }
  return tags;
}

double CrosstalkRecorder::MeanPairWait(uint64_t waiter, uint64_t holder) const {
  auto it = pair_waits_.find({waiter, holder});
  return it == pair_waits_.end() ? 0.0 : it->second.mean();
}

double CrosstalkRecorder::MeanWait(uint64_t waiter) const {
  auto it = waiter_waits_.find(waiter);
  return it == waiter_waits_.end() ? 0.0 : it->second.mean();
}

double CrosstalkRecorder::MeanWaitAllAcquires(uint64_t waiter) const {
  auto it = all_acquires_.find(waiter);
  return it == all_acquires_.end() ? 0.0 : it->second.mean();
}

uint64_t CrosstalkRecorder::WaitCount(uint64_t waiter) const {
  auto it = waiter_waits_.find(waiter);
  return it == waiter_waits_.end() ? 0 : it->second.count();
}

std::vector<CrosstalkRecorder::PairRow> CrosstalkRecorder::PairRows() const {
  std::vector<PairRow> rows;
  rows.reserve(pair_waits_.size());
  for (const auto& [key, stat] : pair_waits_) {
    rows.push_back(PairRow{key.first, key.second, stat.count(), stat.mean()});
  }
  std::sort(rows.begin(), rows.end(),
            [](const PairRow& a, const PairRow& b) { return a.mean_wait_ns > b.mean_wait_ns; });
  return rows;
}

std::vector<CrosstalkRecorder::LockRow> CrosstalkRecorder::LockRows() const {
  std::vector<LockRow> rows;
  rows.reserve(lock_waits_.size());
  for (const auto& [name, stat] : lock_waits_) {
    rows.push_back(LockRow{name, stat.count(), stat.mean(), stat.sum()});
  }
  std::sort(rows.begin(), rows.end(), [](const LockRow& a, const LockRow& b) {
    return a.total_wait_ns > b.total_wait_ns;
  });
  return rows;
}

std::string CrosstalkRecorder::Render(
    const std::function<std::string(uint64_t)>& namer) const {
  std::ostringstream out;
  out << "crosstalk (waiter <- holder): mean wait [count]\n";
  for (const PairRow& row : PairRows()) {
    out << "  " << namer(row.waiter) << " <- " << namer(row.holder) << ": "
        << row.mean_wait_ns / 1e6 << " ms [" << row.count << "]\n";
  }
  out << "by lock: total wait (mean) [contended acquires]\n";
  for (const LockRow& row : LockRows()) {
    out << "  " << row.lock_name << ": " << row.total_wait_ns / 1e6 << " ms ("
        << row.mean_wait_ns / 1e6 << " ms) [" << row.count << "]\n";
  }
  return out.str();
}

}  // namespace whodunit::crosstalk
