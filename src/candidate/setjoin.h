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
// Input.  One CSR table of every account's sorted, duplicate-free task ids
// (TaskSetTable); each set also gets a one-word row with bit t mod 64 for
// each task t, which with every task id below 64 is the exact bitset.
//
// Two tiers, both exact:
//   1. Signature collapse.  Accounts with identical task sets (the Sybil
//      signature: replayed schedules share the exact set) are grouped
//      behind their smallest account id: a hash of each set's task ids
//      maps to the first account with that hash, and a tie is settled by
//      comparing the sets exactly.  Within such a group every pair has
//      T = s, L = 0, so one check decides all of them and a star of edges
//      to the representative keeps the component intact.
//   2. Two-task prefix join over the distinct representatives (Bayardo et
//      al., "Scaling up all pairs similarity search", WWW'07; Xiao et al.,
//      PPJoin, WWW'08).  Tasks are ranked rarest first (frequency over the
//      distinct sets, ties by task id) and each set lists its tasks in that
//      order.  Sets are processed in ascending size (a counting sort, ties
//      by representative id), so every earlier set B has |B| <= |A|.  Two
//      distinct sets have L >= 1, so an edge has T >= 3 and the two
//      lowest-ranked shared tasks lie in A's first p + 1 and in B's first
//      q + 1 tasks, with p = |A| - floor(2|A|/3), q = |B| - floor(4|B|/5):
//        * index: every set of size >= 3 is entered in the posting list of
//          each pair of its first q + 1 tasks.  A hash directory maps each
//          pair key present to its list, so the index's memory is linear
//          in its entries;
//        * probe: A looks up every pair of its first p + 1 tasks and takes
//          the entries of the sets processed before it (lists are filled
//          in processing order);
//        * size filter: an edge needs 3|B| > 2|A|; lists are size-ordered,
//          so the filter is a per-list head pointer that only moves forward;
//        * verify: the entries A gathered go through one
//          simd::KernelTable::set_join_verify dispatch, which keeps exactly
//          the entries with 5T > 2(|A| + |B|) on the rows.  Above 64 tasks
//          the popcount alone can undercount T (t and t + 64 share a bit),
//          so A's excess e_A = |A| - popcount(row_A) is added back:
//          T <= popcount(row_A & row_B) + e_A always holds, and the kernel
//          runs with |A| - ceil(5 e_A / 2) as A's size (a negative value
//          filters nothing).  Survivors get the exact T from the sorted
//          task lists, and `is_edge` decides them.
//      The two-task prefix lemma in docs/GROUPING.md proves that every pair
//      with T > 2L meets in some probed list, and the bound above that the
//      filter keeps it, so recall is 1 by construction.  A pair found
//      through several lists is checked and emitted once: each survivor
//      is stamped with the set that probed it.
//
// Cost.  The index is quadratic in the set size: a set is entered under
// C(q + 1, 2) ~ |B|^2 / 50 pairs and probes C(p + 1, 2) ~ |A|^2 / 18, so
// its memory is linear in the entries but not in the reports.  It is
// built for short schedules (the 4-12 tasks of the benchmarks: at most 6
// entries and 10 lookups per set); at 300 tasks a set takes 1,830 entries
// where the one-task index took 61 (docs/PERFORMANCE.md).
//
// The caller supplies the edge predicate and guarantees that it implies
// T > 2L, and that is_edge(s, 0) holds for an identical-set group whenever
// any of its sets has an edge (both hold for Eq. 6 with rho >= 0, since
// A(T, L) <= T^2 / m <= A(s, 0); AG-TS keeps rho < 0 on the dense path).
// The join is serial; `is_edge` is called from the calling thread only.
// Its scratch is allocated per call and released on return.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace sybiltd::candidate {

// Every account's task set in one CSR table: account a's tasks are
// task[offset[a], offset[a + 1]), sorted ascending and duplicate-free.
struct TaskSetTable {
  std::vector<std::size_t> offset{0};
  std::vector<std::uint32_t> task;

  std::size_t accounts() const { return offset.size() - 1; }
  std::span<const std::uint32_t> of(std::size_t a) const {
    return {task.data() + offset[a], offset[a + 1] - offset[a]};
  }
};

struct SetJoinStats {
  std::size_t accounts = 0;
  std::size_t distinct_sets = 0;   // non-empty distinct task sets
  std::size_t collapsed = 0;       // accounts folded behind a representative
  bool exhaustive = false;         // always true after a join: it is exact
  std::size_t lists = 0;           // pair posting lists the probes scanned
  std::size_t candidates = 0;      // posting entries the verify kernel tested
  std::size_t edges = 0;           // spanning edges emitted
};

// Spanning edges (packed (i << 32) | j with i < j, sorted ascending) of the
// graph { (i,j) : is_edge(T_ij, L_ij) }.  "Spanning" means the connected
// components match the full graph's; within-group stars and cross-
// representative edges stand in for the cliques the dense path would build.
std::vector<std::uint64_t> sparse_affinity_edges(
    const TaskSetTable& sets,
    const std::function<bool(std::size_t both, std::size_t alone)>& is_edge,
    SetJoinStats* stats = nullptr);

}  // namespace sybiltd::candidate
