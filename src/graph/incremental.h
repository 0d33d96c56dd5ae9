// Incremental connected components over an edge set that mutates in
// account-row granularity — the structure behind the pipeline's lazy
// regroup path.
//
// The pipeline's AG-TS task sets only change for accounts touched by a
// report batch: applying or evicting an observation of account `a`
// perturbs the (T, L) counts of pairs involving `a` and no others.  So
// after a batch, the affinity graph differs from the previous one only in
// edges incident to the dirty accounts.  IncrementalComponents maintains
// the adjacency lists and a union-find mirror:
//
//   * set_neighbors(u, ...) replaces u's incident edges, updating the
//     mirror lists of affected neighbors.  Edges that only *appear* are
//     united into the current union-find in O(alpha) each.
//   * Edge *disappearance* can split a component (affinity is not
//     monotone: one added task can push a pair from T > 2L to T <= 2L), and
//     union-find cannot un-merge — the structure marks itself stale and the
//     next labels() call rebuilds the union-find from the stored adjacency
//     in O(n + E).  Rebuilds are counted so the obs registry can show how
//     often the cheap path held.
//
// labels() numbers components by first account occurrence — the same
// canonical form core::AccountGrouping::from_labels and
// graph::UnionFind::labels use — so any sequence of updates that produces
// the same edge set produces byte-identical labels to a from-scratch
// rebuild (tested).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/union_find.h"

namespace sybiltd::graph {

class IncrementalComponents {
 public:
  IncrementalComponents() = default;

  // Grow to n nodes; new nodes start isolated.  Shrinking is not supported.
  void resize(std::size_t n);
  std::size_t node_count() const { return adjacency_.size(); }

  // Replace u's full neighbor set (ascending, no self-loops, all < n).
  // Mirror lists of gained/lost neighbors are updated, so after a round of
  // set_neighbors calls over the dirty accounts the adjacency equals the
  // from-scratch graph.
  void set_neighbors(std::size_t u, const std::vector<std::uint32_t>& neighbors);

  const std::vector<std::uint32_t>& neighbors(std::size_t u) const {
    return adjacency_[u];
  }

  // Canonical per-node component labels (numbered by first occurrence).
  // Rebuilds the union-find first if any edge removal invalidated it.
  std::vector<std::size_t> labels();

  std::size_t component_count();

  // Diagnostics: how often labels() could reuse the incrementally
  // maintained union-find vs. had to rebuild it.
  std::uint64_t rebuilds() const { return rebuilds_; }
  std::uint64_t incremental_reuses() const { return reuses_; }

 private:
  void rebuild();

  std::vector<std::vector<std::uint32_t>> adjacency_;
  UnionFind uf_{0};
  bool uf_stale_ = false;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t reuses_ = 0;
};

}  // namespace sybiltd::graph
