// AG-TS — Account Grouping by Task Set (Section IV-C, Eq. 6).
//
// Affinity between accounts i and j:
//     A(i,j) = (T_ij - 2 * L_ij) * (T_ij + L_ij) / m
// where T_ij = |T_i ∩ T_j| (tasks both did), L_ij = |T_i Δ T_j| (tasks
// either did alone) and m is the task count.  Accounts are nodes of a graph
// with edges where A > rho; connected components become groups.
//
// The threshold picks the evaluation:
//   * rho >= 0 — an edge needs T > 2L, i.e. Jaccard similarity above 2/3,
//     so candidate::sparse_affinity_edges (identical-set collapse + an
//     exact prefix join) finds the components without ever materializing
//     a dense matrix;
//   * rho < 0 — that necessity fails, so the n x n affinity matrix (also
//     exposed for the Fig. 3 bench) is thresholded directly.
//
// NOTE on the paper's worked example (Table III / Fig. 3): by Eq. (6) as
// printed, A(1,4') = A(1,3) = (3-2)(3+1)/4 = 1 — the two pairs are
// indistinguishable from task sets alone (both share 3 tasks with one
// symmetric-difference task), so the example's claimed outcome (account 1
// grouped with the Sybil accounts but account 3 separate) cannot follow
// from any symmetric set-based affinity.  We implement Eq. (6) verbatim
// with the strict A > rho edge rule of Fig. 3(d); the bench prints our
// matrices next to the paper's narrative and flags the discrepancy.
#pragma once

#include <vector>

#include "candidate/setjoin.h"
#include "core/grouping.h"

namespace sybiltd::core {

struct AgTsOptions {
  double rho = 1.0;  // edge threshold (paper's example value)
};

// Counters from one group() run, for the scalability bench.
struct AgTsStats {
  std::size_t pairs = 0;  // unordered account pairs
  bool sparse = false;    // sparse set-join path taken
  candidate::SetJoinStats join;  // populated on the sparse path
};

class AgTs final : public AccountGrouper {
 public:
  explicit AgTs(AgTsOptions options = {}) : options_(options) {}
  std::string name() const override { return "AG-TS"; }
  AccountGrouping group(const FrameworkInput& input) const override;

  // group() plus sparse-path counters (stats may be null).
  AccountGrouping group_with_stats(const FrameworkInput& input,
                                   AgTsStats* stats) const;

  // The full affinity matrix (diagonal = 0), exposed for the Fig. 3 bench
  // and for tests.
  static std::vector<std::vector<double>> affinity_matrix(
      const FrameworkInput& input);
  // Eq. (6) for one pair.
  static double affinity(std::size_t both, std::size_t alone,
                         std::size_t task_count);

  // Sorted duplicate-free task sets per account, the sparse path's input.
  static std::vector<std::vector<std::uint32_t>> task_sets(
      const FrameworkInput& input);

 private:
  AgTsOptions options_;
};

}  // namespace sybiltd::core
