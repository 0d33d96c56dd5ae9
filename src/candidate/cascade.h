// The DTW lower-bound cascade: cheapest-first staged filtering of one
// candidate pair, short-circuiting to "pruned" as soon as any stage's bound
// reaches phi.
//
// Stages, each a valid lower bound on D(i,j) = DTW(X) + DTW(Y) in
// accumulated-squared-cost (total-cost) mode:
//   1. endpoint (LB_Kim flavor)  — O(1), from the fingerprints: warping
//      aligns first-with-first and last-with-last, so the endpoint squared
//      distances are a floor.  Blocking (candidate/blocking.h) applies the
//      same bound before emitting a pair, so on its output this stage
//      never prunes.
//   2. envelope (degenerate LB_Keogh) — O(len): each element aligns with
//      *something* in the other series, so its distance to [lo, hi] counts.
//      Taken per term as max(endpoint, envelope both directions).
//   3. strict LB_Keogh — O(len), only when a Sakoe-Chiba band is configured
//      and the pair has equal lengths (the bound's validity conditions).
//   4. exact banded DTW, task series first: the time term can only add, so
//      a task cost >= phi abandons the pair before the second DP.
//
// Every stage is a valid lower bound, so a pruned pair really has
// D >= phi, and a surviving pair's dissimilarity is the exact DP value:
// the cascade keeps exactly the edges an all-pairs evaluation would.  The
// staging only changes how early the cheap rejections exit.
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
  kExact,              // both DTW terms evaluated; value returned
};

struct CascadeStats {
  std::size_t evaluated = 0;
  std::size_t empty_series = 0;
  std::size_t endpoint_pruned = 0;
  std::size_t envelope_pruned = 0;
  std::size_t keogh_pruned = 0;
  std::size_t task_abandoned = 0;
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

// Stateless evaluator over a borrowed series table and its fingerprints;
// safe to call concurrently from the thread pool.
class LbCascade {
 public:
  LbCascade(const SeriesTable& series,
            std::span<const TrajectoryFingerprint> fingerprints,
            const CascadeOptions& options)
      : series_(series), fps_(fingerprints), options_(options) {}

  // Evaluate one pair.  On kExact, *dissimilarity holds the total D(i,j)
  // (which may itself still be >= phi — the caller applies the edge rule);
  // on every other outcome it is untouched.
  CascadeOutcome evaluate(std::size_t i, std::size_t j,
                          double* dissimilarity) const;

 private:
  const SeriesTable& series_;
  std::span<const TrajectoryFingerprint> fps_;
  CascadeOptions options_;
};

}  // namespace sybiltd::candidate
