// Sparse affinity-graph construction for AG-TS: find every account pair
// whose Eq. (6) affinity clears the edge threshold without evaluating the
// dense n x n matrix.
//
// Structure of the problem.  The affinity A(i,j) = (T - 2L)(T + L) / m is
// positive only when T > 2L, i.e. when the intersection dominates the
// symmetric difference.  With L = |A| + |B| - 2T that is 5T > 2(|A| + |B|),
// which is exactly Jaccard similarity J = T / (T + L) > 2/3.  With the
// non-negative thresholds rho used in practice an edge therefore needs it,
// and the search is an exact set-similarity self-join.
//
// Two tiers, both exact:
//   1. Signature collapse.  Accounts with identical task sets (the Sybil
//      signature: replayed schedules share the exact set) are grouped
//      behind their smallest account id; within such a group every pair
//      has T = s, L = 0, so one check decides all of them and a star of
//      edges to the representative keeps the component intact.
//   2. Prefix join over the distinct non-empty representatives (Bayardo
//      et al., "Scaling up all pairs similarity search", WWW'07; Xiao et
//      al., PPJoin, WWW'08).  Tasks are ranked rarest first (frequency over
//      the distinct sets, ties by task id) and each set lists its tasks in
//      that order.  Sets are processed in ascending size (ties by
//      representative id), so every earlier set B has |B| <= |A|:
//        * probe: the posting lists of A's first |A| - floor(2|A|/3) tasks;
//        * index: after probing, A joins the lists of its first
//          |A| - floor(4|A|/5) tasks, the prefix it needs as a later B;
//        * size filter: an edge needs 3|B| > 2|A|; lists are size-ordered,
//          so the filter is a per-list head pointer that only moves forward;
//        * verify: one simd::KernelTable::set_join_verify dispatch per
//          posting run.  Each set has a one-word row with bit t mod 64 for
//          each task t; with all task ids below 64 that is the exact
//          bitset, popcount(row_A & row_B) is T, and the kernel keeps
//          exactly the entries with 5T > 2(|A| + |B|).  Above 64 tasks the
//          popcount alone can undercount T (t and t + 64 share a bit), so
//          A's excess e_A = |A| - popcount(row_A) is added back:
//          T <= popcount(row_A & row_B) + e_A always holds, and the kernel
//          runs with |A| - ceil(5 e_A / 2) as A's size (a negative value
//          filters nothing).  Survivors get the exact T from the sorted
//          task lists, and `is_edge` decides them.
//      The prefix lemma in docs/GROUPING.md proves that every pair with
//      T > 2L meets in some probed list, and the bound above that the
//      filter keeps it, so recall is 1 by construction.  A pair found
//      through several lists is emitted once (sort + unique).
//
// The caller supplies the edge predicate and guarantees that it implies
// T > 2L, and that is_edge(s, 0) holds for an identical-set group whenever
// any of its sets has an edge (both hold for Eq. 6 with rho >= 0, since
// A(T, L) <= T^2 / m <= A(s, 0); AG-TS keeps rho < 0 on the dense path).
// The join is serial; `is_edge` is called from the calling thread only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace sybiltd::candidate {

struct SetJoinStats {
  std::size_t accounts = 0;
  std::size_t distinct_sets = 0;   // non-empty distinct task sets
  std::size_t collapsed = 0;       // accounts folded behind a representative
  bool exhaustive = false;         // always true after a join: it is exact
  std::size_t candidates = 0;      // posting entries the verify kernel tested
  std::size_t edges = 0;           // spanning edges emitted
};

// Spanning edges (packed (i << 32) | j with i < j, sorted ascending) of the
// graph { (i,j) : is_edge(T_ij, L_ij) }.  "Spanning" means the connected
// components match the full graph's; within-group stars and cross-
// representative edges stand in for the cliques the dense path would build.
// `task_sets[i]` must be sorted and duplicate-free.
std::vector<std::uint64_t> sparse_affinity_edges(
    const std::vector<std::vector<std::uint32_t>>& task_sets,
    const std::function<bool(std::size_t both, std::size_t alone)>& is_edge,
    SetJoinStats* stats = nullptr);

}  // namespace sybiltd::candidate
