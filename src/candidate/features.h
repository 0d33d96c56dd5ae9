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

#include <cmath>
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

// An account's point in the 4-d endpoint space the blocking grid cuts into
// cells, plus the one flag the bound needs: the task and timestamp series
// of an account always have the same length, so both are singletons or
// neither is.
struct EndpointPoint {
  double task_first = 0.0;
  double task_last = 0.0;
  double time_first = 0.0;
  double time_last = 0.0;
  bool singleton = false;
};

// The endpoint bound of each DTW term.  Every warping path aligns first
// with first and last with last; when both series are singletons that is
// one alignment, counted once.  Same arithmetic as dtw::endpoint_lower_bound
// on the series, so blocking and the cascade decide every pair alike.
struct EndpointBound {
  double task = 0.0;
  double time = 0.0;
  double total() const { return task + time; }
};

inline EndpointBound endpoint_bound(const EndpointPoint& a,
                                    const EndpointPoint& b) {
  const double dtf = a.task_first - b.task_first;
  const double dyf = a.time_first - b.time_first;
  EndpointBound bound{dtf * dtf, dyf * dyf};
  if (!(a.singleton && b.singleton)) {
    const double dtl = a.task_last - b.task_last;
    const double dyl = a.time_last - b.time_last;
    bound.task += dtl * dtl;
    bound.time += dyl * dyl;
  }
  return bound;
}

// The extremes bound of one DTW term, from the two series' [lo, hi]
// envelopes: max((lo_a - lo_b)^2, (hi_a - hi_b)^2).  If lo_a < lo_b, the
// element of A equal to lo_a lies below B's envelope, so envelope_bound(A,
// B) holds (lo_b - lo_a)^2 as one of its summands (and symmetrically for
// hi and for B).  The squared gap is that summand bit for bit, and a sum of
// non-negative terms never rounds below one of them, so this value never
// exceeds the cascade's envelope stage.  A gap between equal infinite
// extremes is NaN; the envelope counts nothing there, so it is 0 here,
// which also keeps NaN out of every std::max.
inline double extremes_bound(double lo_a, double hi_a, double lo_b,
                             double hi_b) {
  const double dlo = lo_a - lo_b;
  const double dhi = hi_a - hi_b;
  const double lo_term = std::isnan(dlo) ? 0.0 : dlo * dlo;
  const double hi_term = std::isnan(dhi) ? 0.0 : dhi * dhi;
  return lo_term < hi_term ? hi_term : lo_term;
}

// One fingerprint per account: profiles of the task-index series and the
// timestamp series.  An account with no reports has empty profiles and is
// never a candidate (its DTW dissimilarity is +inf to everything).
struct TrajectoryFingerprint {
  SeriesProfile task;
  SeriesProfile time;

  bool empty() const { return task.length == 0; }
  EndpointPoint endpoints() const {
    return {task.first, task.last, time.first, time.last, task.length == 1};
  }
};

// Both AG-TR series of every account in one CSR table: account i's task
// series is task[offset[i], offset[i + 1]) and its timestamp series is the
// same range of `time`.
struct SeriesTable {
  std::vector<std::size_t> offset{0};
  std::vector<double> task;
  std::vector<double> time;

  std::size_t accounts() const { return offset.size() - 1; }
  std::span<const double> task_of(std::size_t i) const {
    return {task.data() + offset[i], offset[i + 1] - offset[i]};
  }
  std::span<const double> time_of(std::size_t i) const {
    return {time.data() + offset[i], offset[i + 1] - offset[i]};
  }
  // Append one account; the two series must have the same length.
  void append(std::span<const double> task_series,
              std::span<const double> time_series);
};

// Fingerprints of every account of the table, in account order.
std::vector<TrajectoryFingerprint> fingerprints_of(const SeriesTable& series);

// Squared distance of each element of `query` to the [lo, hi] envelope of
// the other series — the degenerate whole-series LB_Keogh.
double envelope_bound(std::span<const double> query,
                      const SeriesProfile& candidate);

}  // namespace sybiltd::candidate
