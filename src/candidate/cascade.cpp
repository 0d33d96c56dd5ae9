#include "candidate/cascade.h"

#include <algorithm>
#include <limits>

namespace sybiltd::candidate {

namespace {

// Accumulated squared cost along the diagonal warping path of two
// equal-length series, summed in the DP's own order (first cell first).
double diagonal_cost(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double d = a[k] - b[k];
    sum += d * d;
  }
  return sum;
}

}  // namespace

// Over len cells per series, two sums of squared differences lie within
// a factor (1 +- u)^(len + 2) of their exact value (u = eps / 2: one
// rounding per difference, square and addition): this one, and the DP's
// own accumulation along the diagonal, which the DP's minimum never
// exceeds because rounding is monotone.  Adding the task and time terms
// rounds once more, so the DP's total is at most
// ((1 + u) / (1 - u))^(len + 3) ~ 1 + (len + 3) eps times U.  The factor
// 1 + 2 (len + 4) eps covers that and the rounding of this product.
// Squares that underflow carry an absolute error of at most half the
// smallest subnormal each, which the additive term covers.
double inflated_upper_bound(double upper, std::size_t len) {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  const double n = static_cast<double>(len);
  return upper * (1.0 + 2.0 * (n + 4.0) * kEps) + 4.0 * (n + 1.0) * kTiny;
}

void CascadeStats::count(CascadeOutcome outcome) {
  ++evaluated;
  switch (outcome) {
    case CascadeOutcome::kEmptySeries:
      ++empty_series;
      break;
    case CascadeOutcome::kEndpointPruned:
      ++endpoint_pruned;
      break;
    case CascadeOutcome::kEnvelopePruned:
      ++envelope_pruned;
      break;
    case CascadeOutcome::kKeoghPruned:
      ++keogh_pruned;
      break;
    case CascadeOutcome::kTaskAbandoned:
      ++task_abandoned;
      break;
    case CascadeOutcome::kUpperBoundAccepted:
      ++upper_bound_accepted;
      break;
    case CascadeOutcome::kExact:
      ++exact_pairs;
      break;
  }
}

CascadeOutcome LbCascade::evaluate(std::size_t i, std::size_t j,
                                   double* dissimilarity) const {
  const TrajectoryFingerprint& fi = fps_[i];
  const TrajectoryFingerprint& fj = fps_[j];
  if (fi.empty() || fj.empty()) return CascadeOutcome::kEmptySeries;
  const double phi = options_.phi;

  // Stage 1: endpoint bounds, O(1).
  const EndpointBound endpoint =
      endpoint_bound(fi.endpoints(), fj.endpoints());
  double bx = endpoint.task;
  double by = endpoint.time;
  if (bx + by >= phi) return CascadeOutcome::kEndpointPruned;

  const std::span<const double> xi = series_.task_of(i);
  const std::span<const double> xj = series_.task_of(j);
  const std::span<const double> yi = series_.time_of(i);
  const std::span<const double> yj = series_.time_of(j);

  // Stage 2: whole-series envelope bounds, O(len) per direction.
  bx = std::max(bx, envelope_bound(xi, fj.task));
  bx = std::max(bx, envelope_bound(xj, fi.task));
  by = std::max(by, envelope_bound(yi, fj.time));
  by = std::max(by, envelope_bound(yj, fi.time));
  if (bx + by >= phi) return CascadeOutcome::kEnvelopePruned;

  // Stage 3: strict LB_Keogh under the configured band (equal lengths only;
  // the x and y series of one account always have the same length).
  if (options_.dtw.band > 0 && xi.size() == xj.size()) {
    bx = std::max(bx, dtw::lb_keogh(xi, xj, options_.dtw.band));
    bx = std::max(bx, dtw::lb_keogh(xj, xi, options_.dtw.band));
    by = std::max(by, dtw::lb_keogh(yi, yj, options_.dtw.band));
    by = std::max(by, dtw::lb_keogh(yj, yi, options_.dtw.band));
    if (bx + by >= phi) return CascadeOutcome::kKeoghPruned;
  }

  // Stage 4: the diagonal is a warping path of equal-length series under
  // any band, so its cost bounds D from above.
  if (xi.size() == xj.size()) {
    const double upper = diagonal_cost(xi, xj) + diagonal_cost(yi, yj);
    if (inflated_upper_bound(upper, xi.size()) < phi) {
      *dissimilarity = upper;
      return CascadeOutcome::kUpperBoundAccepted;
    }
  }

  // Stage 5: exact terms, task series first — the time term can only add.
  const double task_d = dtw::dtw_total_cost(xi, xj, options_.dtw);
  if (task_d >= phi) return CascadeOutcome::kTaskAbandoned;
  *dissimilarity = task_d + dtw::dtw_total_cost(yi, yj, options_.dtw);
  return CascadeOutcome::kExact;
}

}  // namespace sybiltd::candidate
