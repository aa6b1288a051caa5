// Live transaction observability: Chrome trace-event export.
//
// Serializes completed transactions' cross-stage timelines as Chrome
// trace-event JSON (the JSON Array Format with a "traceEvents" top
// level), loadable in Perfetto or chrome://tracing. Each stage gets
// one track (tid), each StageSpan becomes one complete ("X") event,
// and the synopsis-linked request edges become flow ("s"/"f") arrows
// from the sending span's track to the receiving span's start. The
// format is documented in docs/OBSERVABILITY.md.
#ifndef SRC_OBS_LIVE_SPAN_EXPORT_H_
#define SRC_OBS_LIVE_SPAN_EXPORT_H_

#include <string>
#include <vector>

#include "src/util/symbol_table.h"
#include "src/obs/live/txn_event.h"

namespace whodunit::obs::live {

// Chrome trace JSON for the given transactions. Stage tracks are
// numbered in first-appearance order and named (through `syms`, in
// name order) with thread_name metadata events; timestamps are
// virtual-time microseconds.
std::string ExportChromeTrace(const std::vector<TxnEvent>& events, const util::SymbolTable& syms);

inline std::string ExportChromeTrace(const std::vector<TxnEvent>& events) {
  return ExportChromeTrace(events, util::Syms());
}

}  // namespace whodunit::obs::live

#endif  // SRC_OBS_LIVE_SPAN_EXPORT_H_
