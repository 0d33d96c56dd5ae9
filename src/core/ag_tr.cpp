#include "core/ag_tr.h"

#include <cmath>
#include <cstdint>
#include <limits>

#include "candidate/blocking.h"
#include "candidate/cascade.h"
#include "candidate/features.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "graph/union_find.h"
#include "obs/metrics.h"

namespace sybiltd::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Registry mirror of AgTrStats, accumulated across every grouping pass so
// pruning effectiveness shows up in obs::snapshot() even when callers do
// not ask for per-call stats.  The cascade stages get their own counters so
// the prune funnel is visible end to end.
struct AgTrMetrics {
  obs::Counter& pairs = obs::MetricsRegistry::global().counter(
      "agtr.pairs", "unordered account pairs considered by AG-TR");
  obs::Counter& blocked = obs::MetricsRegistry::global().counter(
      "agtr.blocked",
      "pairs outside the walked windows of neighboring endpoint slabs");
  obs::Counter& candidates = obs::MetricsRegistry::global().counter(
      "agtr.candidates",
      "pairs in the walked windows of neighboring endpoint slabs");
  obs::Counter& lb_pruned = obs::MetricsRegistry::global().counter(
      "agtr.lb_pruned", "pairs discarded by the DTW lower bound");
  obs::Counter& endpoint_pruned = obs::MetricsRegistry::global().counter(
      "agtr.cascade.endpoint_pruned",
      "window pairs dropped inside blocking by the endpoint and extremes "
      "bounds");
  obs::Counter& envelope_pruned = obs::MetricsRegistry::global().counter(
      "agtr.cascade.envelope_pruned",
      "cascade prunes at the whole-series envelope stage");
  obs::Counter& keogh_pruned = obs::MetricsRegistry::global().counter(
      "agtr.cascade.keogh_pruned",
      "cascade prunes at the strict LB_Keogh stage");
  obs::Counter& task_abandoned = obs::MetricsRegistry::global().counter(
      "agtr.task_abandoned", "pairs abandoned after the task-series DTW");
  obs::Counter& upper_bound_accepted = obs::MetricsRegistry::global().counter(
      "agtr.cascade.upper_bound_accepted",
      "edges accepted by the diagonal upper bound without a DTW DP");
  obs::Counter& exact_pairs = obs::MetricsRegistry::global().counter(
      "agtr.exact_pairs", "pairs that ran both DTW DPs");

  static AgTrMetrics& get() {
    static AgTrMetrics metrics;
    return metrics;
  }
};

}  // namespace

std::vector<double> AgTr::task_series(const AccountTrace& account) {
  std::vector<double> series;
  series.reserve(account.reports.size());
  for (const auto& report : account.reports) {
    series.push_back(static_cast<double>(report.task + 1));
  }
  return series;
}

std::vector<double> AgTr::timestamp_series(const AccountTrace& account) {
  std::vector<double> series;
  series.reserve(account.reports.size());
  for (const auto& report : account.reports) {
    series.push_back(report.timestamp_hours);
  }
  return series;
}

candidate::SeriesTable AgTr::series_table(const FrameworkInput& input) {
  candidate::SeriesTable table;
  std::size_t total = 0;
  for (const auto& account : input.accounts) total += account.reports.size();
  table.offset.reserve(input.accounts.size() + 1);
  table.task.reserve(total);
  table.time.reserve(total);
  for (const auto& account : input.accounts) {
    for (const auto& report : account.reports) {
      table.task.push_back(static_cast<double>(
          checked_task_id(report.task, input.task_count) + 1));
      table.time.push_back(report.timestamp_hours);
    }
    table.offset.push_back(table.task.size());
  }
  return table;
}

double AgTr::dtw_value(std::span<const double> a,
                       std::span<const double> b) const {
  if (a.empty() || b.empty()) {
    // An account with no reports has no trajectory; treat it as maximally
    // dissimilar so it always lands in its own group.
    return kInf;
  }
  // Total-cost mode (the default) needs no warping path, so it runs the
  // path-free banded DP — same total_cost bits as dtw_full, minus the
  // full band matrix and backtracking.
  if (options_.mode == DtwMode::kTotalCost) {
    return dtw::dtw_total_cost(a, b, options_.dtw);
  }
  return dtw::dtw_full(a, b, options_.dtw).distance;
}

AgTr::Matrices AgTr::dissimilarity_matrices(
    const FrameworkInput& input) const {
  const std::size_t n = input.accounts.size();
  Matrices m;
  m.task_dtw.assign(n, std::vector<double>(n, 0.0));
  m.time_dtw.assign(n, std::vector<double>(n, 0.0));
  m.dissimilarity.assign(n, std::vector<double>(n, 0.0));

  const candidate::SeriesTable series = series_table(input);
  // One DTW evaluation per unordered pair fills both triangles; each pair
  // task owns its four mirror cells, so the parallel writes are disjoint.
  parallel_pairwise(n, [&](std::size_t i, std::size_t j) {
    const double dx = dtw_value(series.task_of(i), series.task_of(j));
    const double dy = dtw_value(series.time_of(i), series.time_of(j));
    m.task_dtw[i][j] = m.task_dtw[j][i] = dx;
    m.time_dtw[i][j] = m.time_dtw[j][i] = dy;
    m.dissimilarity[i][j] = m.dissimilarity[j][i] = dx + dy;
  });
  return m;
}

AccountGrouping AgTr::group(const FrameworkInput& input) const {
  return group_with_stats(input, nullptr);
}

AccountGrouping AgTr::group_with_stats(const FrameworkInput& input,
                                       AgTrStats* stats) const {
  const double phi = options_.phi;
  // Blocking sizes its grid cells by sqrt(phi): an infinite phi would
  // emit nothing, and a NaN one admits no edge by any rule.
  SYBILTD_CHECK(std::isfinite(phi), "AG-TR phi must be finite");
  const std::size_t n = input.accounts.size();
  if (n == 0) {
    if (stats != nullptr) *stats = AgTrStats{};
    return AccountGrouping::singletons(0);
  }

  const candidate::SeriesTable series = series_table(input);
  // The lower bounds hold for the accumulated squared cost only; Eq. (7)'s
  // path-length normalization breaks them, so that mode visits every pair.
  const bool bounded = options_.mode == DtwMode::kTotalCost;
  const std::vector<candidate::TrajectoryFingerprint> fps =
      bounded ? candidate::fingerprints_of(series)
              : std::vector<candidate::TrajectoryFingerprint>{};
  const candidate::LbCascade cascade(
      series, fps,
      candidate::CascadeOptions{.phi = phi, .dtw = options_.dtw});

  AgTrStats local;
  local.pairs = ThreadPool::pair_count(n);
  // Candidate pairs in lexicographic (i, j) order; the serial union-find
  // pass below reads the components off the edges, so the grouping is the
  // same at every thread count.  Blocking visits only the pairs that could
  // have D < phi and emits those its endpoint and extremes bounds do not
  // already rule out; the pairs it drops count as endpoint prunes.
  std::vector<std::uint64_t> pairs;
  std::size_t endpoint_dropped = 0;
  if (bounded) {
    candidate::BlockingStats blocking;
    pairs = candidate::endpoint_grid_candidates(fps, phi, &blocking);
    local.candidates = blocking.box_pairs;
    endpoint_dropped = blocking.box_pairs - blocking.candidates;
  } else {
    pairs.reserve(local.pairs);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        pairs.push_back(candidate::pack_pair(i, j));
      }
    }
    local.candidates = pairs.size();
  }
  local.blocked = local.pairs - local.candidates;

  using candidate::CascadeOutcome;
  std::vector<double> dissim(pairs.size(), kInf);
  std::vector<std::uint8_t> outcome(pairs.size());
  parallel_for(pairs.size(), [&](std::size_t k) {
    const std::size_t i = candidate::pair_first(pairs[k]);
    const std::size_t j = candidate::pair_second(pairs[k]);
    const std::span<const double> xi = series.task_of(i);
    const std::span<const double> xj = series.task_of(j);
    CascadeOutcome result;
    if (bounded) {
      result = cascade.evaluate(i, j, &dissim[k]);
    } else if (xi.empty() || xj.empty()) {
      result = CascadeOutcome::kEmptySeries;
    } else if (const double task_d = dtw_value(xi, xj); task_d >= phi) {
      result = CascadeOutcome::kTaskAbandoned;  // the time term only adds
    } else {
      dissim[k] = task_d + dtw_value(series.time_of(i), series.time_of(j));
      result = CascadeOutcome::kExact;
    }
    outcome[k] = static_cast<std::uint8_t>(result);
  });
  graph::UnionFind uf(n);
  candidate::CascadeStats cascade_stats;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    cascade_stats.count(static_cast<CascadeOutcome>(outcome[k]));
    if (dissim[k] < phi) {
      uf.unite(candidate::pair_first(pairs[k]),
               candidate::pair_second(pairs[k]));
    }
  }

  local.lb_pruned = endpoint_dropped + cascade_stats.lb_pruned();
  local.endpoint_pruned = endpoint_dropped + cascade_stats.endpoint_pruned;
  local.envelope_pruned = cascade_stats.envelope_pruned;
  local.keogh_pruned = cascade_stats.keogh_pruned;
  local.task_abandoned = cascade_stats.task_abandoned;
  local.upper_bound_accepted = cascade_stats.upper_bound_accepted;
  local.exact_pairs = cascade_stats.exact_pairs;

  auto& metrics = AgTrMetrics::get();
  metrics.pairs.inc(local.pairs);
  metrics.blocked.inc(local.blocked);
  metrics.candidates.inc(local.candidates);
  metrics.lb_pruned.inc(local.lb_pruned);
  metrics.endpoint_pruned.inc(local.endpoint_pruned);
  metrics.envelope_pruned.inc(local.envelope_pruned);
  metrics.keogh_pruned.inc(local.keogh_pruned);
  metrics.task_abandoned.inc(local.task_abandoned);
  metrics.upper_bound_accepted.inc(local.upper_bound_accepted);
  metrics.exact_pairs.inc(local.exact_pairs);
  if (stats != nullptr) *stats = local;
  return AccountGrouping::from_labels(uf.labels());
}

}  // namespace sybiltd::core
