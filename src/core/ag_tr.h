// AG-TR — Account Grouping by Trajectory (Section IV-C, Eq. 8).
//
// Each account's submissions form two time series ordered by timestamp:
// the task series X_i (task indices, 1-based as in the paper's example) and
// the timestamp series Y_i (hours since the campaign epoch).  Dissimilarity
//     D(i,j) = DTW(X_i, X_j) + DTW(Y_i, Y_j)
// feeds a graph with edges where D < phi; connected components are groups.
//
// DTW flavor: the paper states Eq. (7)'s path-normalized distance but its
// worked example (Fig. 4) reports the raw accumulated squared cost — e.g.
// DTW(X_1, X_2) = 2 for X_1=(1,2,3,4), X_2=(2,3), and D(1,4') = 1.01 =
// 1 + 0.01 with hour-unit timestamps.  We default to the example's
// total-cost mode (it reproduces Fig. 4 exactly) and expose Eq. (7)
// normalization as an option for the ablation bench.
//
// Evaluation: in total-cost mode group() asks endpoint-slab blocking
// (candidate/blocking.h) for the only pairs that could have D < phi and
// runs each through the bound cascade (candidate/cascade.h): lower bounds
// first, then the diagonal upper bound, and the exact DP only for the
// pairs no bound settles — the same edges as an all-pairs sweep, at every
// n (see docs/GROUPING.md).  The bounds do not hold for Eq. (7), so that
// mode evaluates every pair exactly.  Report task ids are checked against
// task_count (series_table throws std::invalid_argument otherwise).
#pragma once

#include <span>
#include <vector>

#include "candidate/features.h"
#include "core/grouping.h"
#include "dtw/dtw.h"

namespace sybiltd::core {

enum class DtwMode {
  kTotalCost,       // accumulated squared cost (matches Fig. 4)
  kPathNormalized,  // Eq. (7): sqrt(total / path length)
};

struct AgTrOptions {
  double phi = 1.0;  // edge threshold (paper's example value); finite
  DtwMode mode = DtwMode::kTotalCost;
  dtw::DtwOptions dtw;  // optional Sakoe–Chiba band
};

// Counters from one group() run, for the scalability/parallel benches.
// The funnel reads top to bottom: of `pairs` total, `blocked` lie outside
// the y_first windows blocking walks in neighboring endpoint slabs (or in
// slab pairs its box bound skips whole), `candidates` are the window
// pairs, the `*_pruned` stages discarded their share (`endpoint_pruned`
// counts the window pairs blocking drops by its endpoint and extremes
// bounds before they reach the cascade), `upper_bound_accepted` became
// edges with no DP, `task_abandoned` stopped after one DP, and
// `exact_pairs` ran both.  Eq. (7) mode blocks and prunes nothing.
struct AgTrStats {
  std::size_t pairs = 0;           // unordered pairs considered
  std::size_t blocked = 0;         // excluded by endpoint-slab blocking
  std::size_t candidates = 0;      // pairs in the blocking windows
  std::size_t lb_pruned = 0;       // excluded by the lower-bound cascade
  std::size_t endpoint_pruned = 0;  //   ... at the O(1) endpoint stage
  std::size_t envelope_pruned = 0;  //   ... at the envelope stage
  std::size_t keogh_pruned = 0;     //   ... at the strict LB_Keogh stage
  std::size_t task_abandoned = 0;  // excluded after the task-series DTW alone
  std::size_t upper_bound_accepted = 0;  // edges by the diagonal upper bound
  std::size_t exact_pairs = 0;     // pairs that ran both DTW evaluations
};

class AgTr final : public AccountGrouper {
 public:
  explicit AgTr(AgTrOptions options = {}) : options_(options) {}
  std::string name() const override { return "AG-TR"; }
  AccountGrouping group(const FrameworkInput& input) const override;

  // group() plus funnel counters (stats may be null).  The pairwise stage
  // runs on the shared ThreadPool; the grouping is identical at every
  // concurrency.  Throws std::invalid_argument unless phi is finite.
  AccountGrouping group_with_stats(const FrameworkInput& input,
                                   AgTrStats* stats) const;

  // Task series (1-based task indices in timestamp order).
  static std::vector<double> task_series(const AccountTrace& account);
  // Timestamp series in hours.
  static std::vector<double> timestamp_series(const AccountTrace& account);
  // Both series of every account in one flat table, in account order.
  // Throws std::invalid_argument for a report task >= input.task_count.
  static candidate::SeriesTable series_table(const FrameworkInput& input);

  // Full pairwise dissimilarity matrices, exposed for the Fig. 4 bench.
  struct Matrices {
    std::vector<std::vector<double>> task_dtw;
    std::vector<std::vector<double>> time_dtw;
    std::vector<std::vector<double>> dissimilarity;  // sum of the two
  };
  Matrices dissimilarity_matrices(const FrameworkInput& input) const;

 private:
  double dtw_value(std::span<const double> a,
                   std::span<const double> b) const;

  AgTrOptions options_;
};

}  // namespace sybiltd::core
