// Activeness fingerprints: per-account constant-size summaries of the two
// AG-TR series (task-index and timestamp), computed once in O(length) and
// reused by every candidate-generation stage.
//
// A SeriesProfile caches exactly the statistics the DTW lower bounds need:
//   * first/last  — the endpoint bound (LB_Kim flavor): every warping path
//     aligns the two first elements and the two last elements, so
//     (a.first-b.first)^2 + (a.last-b.last)^2 never exceeds the DTW cost.
//   * lo/hi       — the whole-series envelope for the degenerate LB_Keogh
//     bound: each element of one series aligns with *some* element of the
//     other, so its squared distance to [lo, hi] is unbeatable.
// Both statements hold for the accumulated-squared-cost DTW at any pair of
// lengths and any band, which is what makes the blocking grid and the
// cascade exact (see docs/GROUPING.md).
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace sybiltd::candidate {

struct SeriesProfile {
  double first = 0.0;
  double last = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  std::size_t length = 0;
};

SeriesProfile profile_of(std::span<const double> series);

// One fingerprint per account: profiles of the task-index series and the
// timestamp series.  An account with no reports has empty profiles and is
// never a candidate (its DTW dissimilarity is +inf to everything).
struct TrajectoryFingerprint {
  SeriesProfile task;
  SeriesProfile time;

  bool empty() const { return task.length == 0; }
};

// Squared distance of each element of `query` to the [lo, hi] envelope of
// the other series — the degenerate whole-series LB_Keogh.
double envelope_bound(std::span<const double> query,
                      const SeriesProfile& candidate);

}  // namespace sybiltd::candidate
