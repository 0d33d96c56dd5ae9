// The DTW bound cascade: cheapest-first staged filtering of one candidate
// pair, short-circuiting to "pruned" as soon as a lower bound reaches phi
// and to "accepted" as soon as an upper bound falls below it.
//
// Lower-bound stages, each a valid lower bound on D(i,j) = DTW(X) + DTW(Y)
// in accumulated-squared-cost (total-cost) mode:
//   1. endpoint (LB_Kim flavor)  — O(1), from the fingerprints: warping
//      aligns first-with-first and last-with-last, so the endpoint squared
//      distances are a floor.
//   2. envelope (degenerate LB_Keogh) — O(len): each element aligns with
//      *something* in the other series, so its distance to [lo, hi] counts.
//      Taken per term as max(endpoint, envelope both directions).
//      Blocking (candidate/blocking.h) applies the endpoint bound and a
//      summand of this one (extremes_bound) before emitting a pair, so on
//      its output stage 1 never prunes and stage 2 rarely does.
//   3. strict LB_Keogh — O(len), only when a Sakoe-Chiba band is configured
//      and the pair has equal lengths (the bound's validity conditions).
// Then the upper bound and the exact terms:
//   4. diagonal upper bound — O(len), equal lengths only: the diagonal is a
//      warping path under any band, so U = sum_k (x_ik - x_jk)^2 +
//      sum_k (y_ik - y_jk)^2 >= D (the Euclidean upper bound on DTW, Keogh
//      and Ratanamahatana 2005).  The pair is accepted without a DP when U,
//      inflated by a margin that covers the rounding of both sums and of
//      the DP's own diagonal accumulation, is below phi; so the DP's value
//      would be below phi too, whatever the summation order or FMA
//      contraction of the build.  Pairs inside the margin go on to stage 5.
//   5. exact banded DTW, task series first: the time term can only add, so
//      a task cost >= phi abandons the pair before the second DP.
//
// A pruned pair really has D >= phi, an accepted pair really has D < phi
// as the DP computes it, and every other pair's dissimilarity is the exact
// DP value: the cascade keeps exactly the edges an all-pairs evaluation
// would.  The lower-bound stages run before the upper bound, so a pair any
// of them prunes is pruned exactly as before.  The staging only changes
// how early a pair exits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "candidate/features.h"
#include "dtw/dtw.h"

namespace sybiltd::candidate {

enum class CascadeOutcome : std::uint8_t {
  kEmptySeries = 0,    // one side has no reports; never an edge
  kEndpointPruned,     // stage 1 reached phi
  kEnvelopePruned,     // stage 2 reached phi
  kKeoghPruned,        // stage 3 reached phi
  kTaskAbandoned,      // task-series DTW alone reached phi
  kUpperBoundAccepted,  // stage 4's diagonal cost is below phi; no DP ran
  kExact,              // both DTW terms evaluated; value returned
};

struct CascadeStats {
  std::size_t evaluated = 0;
  std::size_t empty_series = 0;
  std::size_t endpoint_pruned = 0;
  std::size_t envelope_pruned = 0;
  std::size_t keogh_pruned = 0;
  std::size_t task_abandoned = 0;
  std::size_t upper_bound_accepted = 0;
  std::size_t exact_pairs = 0;

  std::size_t lb_pruned() const {
    return endpoint_pruned + envelope_pruned + keogh_pruned;
  }
  void count(CascadeOutcome outcome);
};

struct CascadeOptions {
  double phi = 1.0;
  dtw::DtwOptions dtw;  // band forwarded to the exact DP and LB_Keogh
};

// The diagonal cost `upper` of two length-`len` series raised past any
// value the DP can compute along that diagonal: stage 4 accepts a pair iff
// this is below phi.
double inflated_upper_bound(double upper, std::size_t len);

// Stateless evaluator over a borrowed series table and its fingerprints;
// safe to call concurrently from the thread pool.
class LbCascade {
 public:
  LbCascade(const SeriesTable& series,
            std::span<const TrajectoryFingerprint> fingerprints,
            const CascadeOptions& options)
      : series_(series), fps_(fingerprints), options_(options) {}

  // Evaluate one pair.  On kExact, *dissimilarity holds the total D(i,j)
  // (which may itself still be >= phi — the caller applies the edge rule).
  // On kUpperBoundAccepted it holds the diagonal cost U, an upper bound on
  // D that is below phi: it is fit only for the comparison with phi, not
  // as a dissimilarity value.  On every other outcome it is untouched.
  CascadeOutcome evaluate(std::size_t i, std::size_t j,
                          double* dissimilarity) const;

 private:
  const SeriesTable& series_;
  std::span<const TrajectoryFingerprint> fps_;
  CascadeOptions options_;
};

}  // namespace sybiltd::candidate
