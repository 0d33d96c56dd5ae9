#include "candidate/cascade.h"

#include <algorithm>

namespace sybiltd::candidate {

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

  // Stage 4: exact terms, task series first — the time term can only add.
  const double task_d = dtw::dtw_total_cost(xi, xj, options_.dtw);
  if (task_d >= phi) return CascadeOutcome::kTaskAbandoned;
  *dissimilarity = task_d + dtw::dtw_total_cost(yi, yj, options_.dtw);
  return CascadeOutcome::kExact;
}

}  // namespace sybiltd::candidate
