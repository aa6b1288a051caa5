// Ablation: transaction-context loop pruning (§4.1).
//
// On a persistent connection the handler sequence grows
// [accept, read, write, read, write, ...] forever. Pruning collapses
// it, bounding both the context length and the number of distinct
// contexts (and hence CCTs). Without pruning, every request count
// yields a new context — profile data fragments and memory grows with
// trace length.
#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "bench/bench_util.h"
#include "src/context/context_tree.h"

int main() {
  using namespace whodunit;
  using context::Element;
  using context::ElementKind;
  using context::NodeId;

  bench::Header("Ablation: context loop pruning on persistent connections (§4.1)");

  const Element accept{ElementKind::kHandler, 0};
  const Element read{ElementKind::kHandler, 1};
  const Element write{ElementKind::kHandler, 2};

  std::printf("%12s | %16s %16s | %16s %16s\n", "requests/conn", "len (pruned)",
              "len (unpruned)", "ctxts (pruned)", "ctxts (unpruned)");
  std::printf("-------------+-----------------------------------+--------------------"
              "-------------\n");
  // Hash-consing is canonical, so distinct NodeIds are distinct contexts.
  context::ContextTree tree;
  for (int requests : {1, 2, 8, 64, 512}) {
    std::unordered_set<NodeId> pruned_ctxts, unpruned_ctxts;
    NodeId pruned = tree.Append(context::kEmptyContext, accept);
    NodeId unpruned = tree.Append(context::kEmptyContext, accept, /*prune=*/false);
    size_t max_pruned = 0, max_unpruned = 0;
    for (int r = 0; r < requests; ++r) {
      for (const Element& h : {read, write}) {
        pruned = tree.Append(pruned, h);
        unpruned = tree.Append(unpruned, h, /*prune=*/false);
        pruned_ctxts.insert(pruned);
        unpruned_ctxts.insert(unpruned);
        max_pruned = std::max<size_t>(max_pruned, tree.SizeOf(pruned));
        max_unpruned = std::max<size_t>(max_unpruned, tree.SizeOf(unpruned));
      }
    }
    std::printf("%12d | %16zu %16zu | %16zu %16zu\n", requests, max_pruned, max_unpruned,
                pruned_ctxts.size(), unpruned_ctxts.size());
  }
  bench::Note(
      "\nPruned contexts stay at <= 3 elements and 2 distinct contexts (the\n"
      "read-phase and write-phase of a request) regardless of connection\n"
      "length; unpruned state grows linearly with the trace — each profile\n"
      "sample would land in a CCT of its own.");
  whodunit::bench::DumpMetrics("ablation_pruning");
  return 0;
}
