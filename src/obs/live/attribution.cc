#include "src/obs/live/attribution.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace whodunit::obs::live {

void AttributeTxn(const TxnEvent& event, const util::SymbolTable& syms,
                  AttrScratch& scratch, AttrVec& out) {
  out.clear();
  if (event.spans.empty() || event.end_ns <= event.start_ns) return;
  const size_t n = event.spans.size();

  // Children grouped by parent in one flat array (counting sort on the
  // parent index). The daemon appends spans in join order, so children
  // always carry larger indices than their parents and index order is
  // a stable tiebreak for equal starts. Spans with no recorded parent
  // (beyond the origin) are grafted onto the origin so every
  // nanosecond stays reachable from the root walk.
  const auto parent_of = [&](size_t i) -> size_t {
    const int32_t p = event.spans[i].parent;
    return (p < 0 || static_cast<size_t>(p) >= i) ? 0 : static_cast<size_t>(p);
  };
  std::vector<uint32_t>& child_off = scratch.child_off;
  std::vector<uint32_t>& child_idx = scratch.child_idx;
  child_off.assign(n + 1, 0);
  for (size_t i = 1; i < n; ++i) {
    ++child_off[parent_of(i) + 1];
  }
  for (size_t i = 1; i <= n; ++i) {
    child_off[i] += child_off[i - 1];
  }
  child_idx.resize(n - 1);
  scratch.cursor.assign(child_off.begin(), child_off.end() - 1);
  for (size_t i = 1; i < n; ++i) {
    child_idx[scratch.cursor[parent_of(i)]++] = static_cast<uint32_t>(i);
  }
  for (size_t p = 0; p < n; ++p) {
    const auto begin = child_idx.begin() + child_off[p];
    const auto end = child_idx.begin() + child_off[p + 1];
    // Spans join in time order in the common case; only sort a
    // sibling list that actually arrived out of order.
    const bool sorted = std::is_sorted(begin, end, [&](uint32_t a, uint32_t b) {
      return event.spans[a].start_ns < event.spans[b].start_ns;
    });
    if (!sorted) {
      std::stable_sort(begin, end, [&](uint32_t a, uint32_t b) {
        return event.spans[a].start_ns < event.spans[b].start_ns;
      });
    }
  }

  // subtree_end[i]: last activity anywhere under span i. Children have
  // larger indices, so one reverse pass suffices.
  std::vector<int64_t>& subtree_end = scratch.subtree_end;
  subtree_end.resize(n);
  for (size_t i = n; i-- > 0;) {
    const StageSpan& s = event.spans[i];
    int64_t end = s.start_ns + s.duration_ns;
    for (uint32_t c = child_off[i]; c < child_off[i + 1]; ++c) {
      end = std::max(end, subtree_end[child_idx[c]]);
    }
    subtree_end[i] = end;
  }

  // Rank every span's stage once so slice ordering below is pure
  // integer work: `stages` ends up unique and sorted by NAME (rank
  // order IS name order — the determinism contract the exports rely
  // on), span_rank[i] is span i's index into it.
  std::vector<util::SymId>& stages = scratch.stages;
  stages.clear();
  for (const StageSpan& s : event.spans) {
    stages.push_back(s.stage);
  }
  const auto by_name = [&syms](util::SymId a, util::SymId b) {
    return syms.Name(a) < syms.Name(b);
  };
  std::sort(stages.begin(), stages.end(), by_name);
  stages.erase(std::unique(stages.begin(), stages.end()), stages.end());
  std::vector<uint32_t>& span_rank = scratch.span_rank;
  span_rank.resize(n);
  for (size_t i = 0; i < n; ++i) {
    span_rank[i] = static_cast<uint32_t>(
        std::lower_bound(stages.begin(), stages.end(), event.spans[i].stage, by_name) -
        stages.begin());
  }

  // Unfolded slices carry stage ranks; symbols are resolved back once
  // per output bucket at the end.
  std::vector<AttrScratch::RawSlice>& raw = scratch.raw;
  raw.clear();
  const auto ctxt_of = [&](const StageSpan& s) {
    return s.ctxt != context::kEmptyContext ? s.ctxt : event.root_ctxt;
  };
  const auto add = [&](size_t span, WaitState state, int64_t ns) {
    if (ns <= 0) return;
    raw.push_back({span_rank[span], ctxt_of(event.spans[span]),
                   static_cast<uint8_t>(state), ns});
  };

  // Walk the critical path: span i owns the window [lo, hi). Intervals
  // where a child subtree is active are handed down to that child; the
  // gap before each child splits into the child's measured queue
  // residency, then CPU this span was measurably burning, then
  // downstream wait on the child tier. The tail after the last child
  // is the span's own time: measured CPU, then lock wait, then the
  // unmeasured remainder (disk, CPU queueing, scheduler).
  const auto attribute = [&](auto&& self, size_t i, int64_t lo,
                             int64_t hi) -> void {
    const StageSpan& s = event.spans[i];
    int64_t service_left = std::max<int64_t>(0, s.service_ns);
    const int64_t lock_left = std::max<int64_t>(0, s.lock_ns);
    int64_t cursor = lo;
    for (uint32_t ci = child_off[i]; ci < child_off[i + 1]; ++ci) {
      const uint32_t child = child_idx[ci];
      const StageSpan& c = event.spans[child];
      const int64_t cs = std::clamp(c.start_ns, cursor, hi);
      const int64_t ce = std::clamp(subtree_end[child], cs, hi);
      int64_t gap = cs - cursor;
      const int64_t queued = std::min(std::max<int64_t>(0, c.queue_ns), gap);
      add(child, WaitState::kQueueWait, queued);
      gap -= queued;
      const int64_t burned = std::min(service_left, gap);
      add(i, WaitState::kService, burned);
      service_left -= burned;
      gap -= burned;
      add(i, WaitState::kDownstreamWait, gap);
      if (ce > cs) self(self, child, cs, ce);
      cursor = std::max(cursor, ce);
    }
    int64_t tail = hi - cursor;
    const int64_t burned = std::min(service_left, tail);
    add(i, WaitState::kService, burned);
    tail -= burned;
    const int64_t locked = std::min(lock_left, tail);
    add(i, WaitState::kLockWait, locked);
    tail -= locked;
    add(i, WaitState::kSchedOther, tail);
  };
  attribute(attribute, 0, event.start_ns, event.end_ns);

  // Fold to deterministically-ordered (stage, ctxt, state) buckets —
  // rank order IS name order, so this matches the pre-interning string
  // sort. The sort need not be stable: equal-key slices are summed, so
  // their relative order cannot show in the output.
  std::sort(raw.begin(), raw.end(),
            [](const AttrScratch::RawSlice& a, const AttrScratch::RawSlice& b) {
              if (a.rank != b.rank) return a.rank < b.rank;
              if (a.ctxt != b.ctxt) return a.ctxt < b.ctxt;
              return a.state < b.state;
            });
  out.reserve(raw.size());
  uint32_t last_rank = 0;
  for (const AttrScratch::RawSlice& r : raw) {
    if (!out.empty() && last_rank == r.rank && out.back().ctxt == r.ctxt &&
        out.back().state == static_cast<WaitState>(r.state)) {
      out.back().ns += r.ns;
    } else {
      out.push_back(AttrSlice{stages[r.rank], r.ctxt,
                              static_cast<WaitState>(r.state), r.ns});
      last_rank = r.rank;
    }
  }
}

}  // namespace whodunit::obs::live
