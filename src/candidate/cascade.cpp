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
  const std::vector<double>& xi = xs_[i];
  const std::vector<double>& xj = xs_[j];
  const std::vector<double>& yi = ys_[i];
  const std::vector<double>& yj = ys_[j];
  if (xi.empty() || xj.empty()) return CascadeOutcome::kEmptySeries;
  const double phi = options_.phi;

  // Stage 1: endpoint bounds, O(1).
  double bx = dtw::endpoint_lower_bound(xi, xj);
  double by = dtw::endpoint_lower_bound(yi, yj);
  if (bx + by >= phi) return CascadeOutcome::kEndpointPruned;

  // Stage 2: whole-series envelope bounds, O(len) per direction.
  bx = std::max(bx, envelope_bound(xi, fps_[j].task));
  bx = std::max(bx, envelope_bound(xj, fps_[i].task));
  by = std::max(by, envelope_bound(yi, fps_[j].time));
  by = std::max(by, envelope_bound(yj, fps_[i].time));
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
