// Test-local all-pairs oracles for the grouping methods: Eq. (6) and
// Eq. (8) read literally, one edge test per unordered account pair, with
// none of the blocking, pruning or set-join machinery the production paths
// use.  Quadratic on purpose — tests compare the production groupings
// against these on small inputs.
#pragma once

#include <cstddef>
#include <vector>

#include "core/ag_tr.h"
#include "core/ag_ts.h"
#include "core/grouping.h"
#include "graph/graph.h"
#include "graph/union_find.h"

namespace sybiltd::oracle {

// AG-TR: every pair's D(i,j) from the full dissimilarity matrices, the
// edges with D < phi folded into a graph in (i, j) order, components as
// groups.  Same labels and the same group member order as AgTr::group.
inline core::AccountGrouping agtr_all_pairs(const core::FrameworkInput& input,
                                            const core::AgTrOptions& options =
                                                {}) {
  const auto d = core::AgTr(options).dissimilarity_matrices(input);
  const graph::UndirectedGraph g = graph::threshold_graph(
      d.dissimilarity, [&](double v) { return v < options.phi; });
  return core::AccountGrouping(g.connected_components(),
                               input.accounts.size());
}

// AG-TS: the dense affinity matrix thresholded at A > rho, merged with a
// union-find.  Canonical labels (numbered by first account occurrence),
// which is what AccountGrouping::labels() returns.
inline std::vector<std::size_t> agts_dense_labels(
    const core::FrameworkInput& input, double rho) {
  const auto affinity = core::AgTs::affinity_matrix(input);
  graph::UnionFind uf(affinity.size());
  for (std::size_t i = 0; i < affinity.size(); ++i) {
    for (std::size_t j = i + 1; j < affinity.size(); ++j) {
      if (affinity[i][j] > rho) uf.unite(i, j);
    }
  }
  return uf.labels();
}

}  // namespace sybiltd::oracle
