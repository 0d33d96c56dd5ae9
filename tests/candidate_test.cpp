// Tests for the candidate-generation layer (src/candidate/): endpoint-grid
// blocking exactness, the lower-bound cascade, the sparse AG-TS set join,
// the incremental component tracker and the streaming regroup — in
// particular the recall properties the docs promise, checked against the
// all-pairs oracles in grouping_oracles.h: AgTr::group is bit-identical to
// the Eq. (8) all-pairs union-find, and AgTs and the shard's regroup reproduce the
// dense Eq. (6) partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "candidate/blocking.h"
#include "candidate/cascade.h"
#include "candidate/features.h"
#include "candidate/setjoin.h"
#include "candidate/task_set_index.h"
#include "core/ag_tr.h"
#include "core/ag_ts.h"
#include "dtw/dtw.h"
#include "eval/adapters.h"
#include "graph/incremental.h"
#include "graph/union_find.h"
#include "grouping_oracles.h"
#include "mcs/scenario.h"
#include "pipeline/shard.h"

namespace sybiltd {
namespace {

core::FrameworkInput scenario_input(std::size_t legit, std::size_t attackers,
                                    std::size_t accounts_per_attacker,
                                    std::size_t tasks, std::uint64_t seed) {
  const auto data = mcs::generate_scenario(mcs::make_large_scenario(
      legit, attackers, accounts_per_attacker, tasks, seed));
  return eval::to_framework_input(data);
}

// --- Blocking --------------------------------------------------------------

// Test-local restatement of blocking's bound.  Per DTW term: the larger of
// the endpoint bound and the squared gaps between the two series' minima
// and between their maxima (NaN elements take no part in either extreme,
// and a gap between equal infinities counts 0, as in the cascade's
// envelope); the task and time terms are summed.
double squared_gap(double a, double b) {
  const double d = a - b;
  return std::isnan(d) ? 0.0 : d * d;
}

double term_bound(const std::vector<double>& a, const std::vector<double>& b) {
  const double inf = std::numeric_limits<double>::infinity();
  double lo_a = inf, hi_a = -inf, lo_b = inf, hi_b = -inf;
  for (const double v : a) {
    if (v < lo_a) lo_a = v;
    if (v > hi_a) hi_a = v;
  }
  for (const double v : b) {
    if (v < lo_b) lo_b = v;
    if (v > hi_b) hi_b = v;
  }
  return std::max({dtw::endpoint_lower_bound(a, b), squared_gap(lo_a, lo_b),
                   squared_gap(hi_a, hi_b)});
}

bool finite_endpoints(const std::vector<double>& x,
                      const std::vector<double>& y) {
  return std::isfinite(x.front()) && std::isfinite(x.back()) &&
         std::isfinite(y.front()) && std::isfinite(y.back());
}

// Brute force of what blocking must emit: every pair i < j of non-empty
// series with finite endpoints whose blocking bound is below phi.
std::vector<std::uint64_t> pairs_below_blocking_bound(
    const std::vector<std::vector<double>>& xs,
    const std::vector<std::vector<double>>& ys, double phi) {
  std::vector<std::uint64_t> pairs;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i].empty() || !finite_endpoints(xs[i], ys[i])) continue;
    for (std::size_t j = i + 1; j < xs.size(); ++j) {
      if (xs[j].empty() || !finite_endpoints(xs[j], ys[j])) continue;
      if (term_bound(xs[i], xs[j]) + term_bound(ys[i], ys[j]) < phi) {
        pairs.push_back(candidate::pack_pair(i, j));
      }
    }
  }
  return pairs;
}

// Blocking's extremes bound never outruns the cascade: every pair whose
// endpoint bound is below phi but that blocking drops must be one the
// cascade's envelope stage prunes.  Returns how many such pairs there were.
std::size_t expect_drops_pruned_by_envelope(
    const candidate::SeriesTable& series,
    const std::vector<candidate::TrajectoryFingerprint>& fps,
    const std::vector<std::uint64_t>& emitted, double phi,
    const std::string& where) {
  const std::set<std::uint64_t> kept(emitted.begin(), emitted.end());
  const candidate::LbCascade cascade(series, fps,
                                     candidate::CascadeOptions{.phi = phi, .dtw = {}});
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < fps.size(); ++i) {
    for (std::size_t j = i + 1; j < fps.size(); ++j) {
      if (kept.count(candidate::pack_pair(i, j)) > 0) continue;
      if (fps[i].empty() || fps[j].empty()) continue;
      const auto ei = fps[i].endpoints(), ej = fps[j].endpoints();
      if (!(candidate::endpoint_bound(ei, ej).total() < phi)) continue;
      double d = -1.0;
      EXPECT_EQ(cascade.evaluate(i, j, &d),
                candidate::CascadeOutcome::kEnvelopePruned)
          << where << " pair (" << i << ", " << j << ")";
      ++dropped;
    }
  }
  return dropped;
}

TEST(EndpointGrid, DroppedPairsAreProvablyBeyondPhi) {
  const auto input = scenario_input(60, 5, 4, 20, 7);
  const std::size_t n = input.accounts.size();
  std::vector<std::vector<double>> xs(n), ys(n);
  candidate::SeriesTable series;
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = core::AgTr::task_series(input.accounts[i]);
    ys[i] = core::AgTr::timestamp_series(input.accounts[i]);
    series.append(xs[i], ys[i]);
  }
  const auto fps = candidate::fingerprints_of(series);
  const double phi = 1.0;
  candidate::BlockingStats stats;
  const auto pairs = candidate::endpoint_grid_candidates(fps, phi, &stats);
  EXPECT_EQ(stats.candidates, pairs.size());
  EXPECT_GT(stats.slabs, 0u);
  // Sorted and unique — the deterministic order the documentation promises.
  for (std::size_t k = 1; k < pairs.size(); ++k) {
    EXPECT_LT(pairs[k - 1], pairs[k]);
  }
  EXPECT_EQ(pairs, pairs_below_blocking_bound(xs, ys, phi));
  std::set<std::uint64_t> emitted(pairs.begin(), pairs.end());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (emitted.count(candidate::pack_pair(i, j)) > 0) continue;
      if (xs[i].empty() || xs[j].empty()) continue;  // excluded by design
      // Every dropped pair is unreachable from phi: its exact
      // dissimilarity is at or beyond it.
      const double exact = dtw::dtw_total_cost(xs[i], xs[j]) +
                           dtw::dtw_total_cost(ys[i], ys[j]);
      EXPECT_GE(exact, phi) << "pair (" << i << ", " << j << ")";
    }
  }
  EXPECT_GT(expect_drops_pruned_by_envelope(series, fps, pairs, phi, "scenario"),
            0u);
}

TEST(EndpointGrid, NonPositivePhiEmitsNothing) {
  std::vector<candidate::TrajectoryFingerprint> fps(3);
  for (auto& fp : fps) {
    const std::vector<double> series{1.0, 2.0};
    fp.task = candidate::profile_of(series);
    fp.time = candidate::profile_of(series);
  }
  EXPECT_TRUE(candidate::endpoint_grid_candidates(fps, 0.0).empty());
  EXPECT_TRUE(candidate::endpoint_grid_candidates(fps, -1.0).empty());
}

// Blocking walks the slab windows and emits exactly the window pairs whose
// blocking bound is below phi, so its output must equal the all-pairs list
// above.  Inputs: random short trajectories over small task indices and
// negative-to-positive timestamps, with empty accounts, singletons (the
// collapsed one-term rule) and near-clones; a tight cluster that falls in
// a single cell at phi = 25; a few-task, long-window campaign (4 tasks,
// 200 hours, 1-4-task schedules); singleton pairs in neighboring slabs
// that only the collapsed box rule keeps; values at and beyond the +-2^30
// cell clamp; and NaN and +-inf interior values.  phi = 0.25, 1 and 16 put
// the cell width below, at and above the integer task spacing.
TEST(EndpointGrid, EmitsExactlyThePairsBelowTheEndpointBound) {
  std::mt19937_64 rng(18);
  std::uniform_int_distribution<std::size_t> length(0, 5);
  std::uniform_int_distribution<int> task(1, 6);
  std::uniform_real_distribution<double> hour(-3.0, 3.0);
  std::uniform_real_distribution<double> jitter(0.0, 0.05);
  std::vector<std::vector<double>> random_xs, random_ys;
  for (std::size_t i = 0; i < 300; ++i) {
    std::vector<double> x, y;
    if (i % 10 == 9) {
      x = random_xs.back();
      y = random_ys.back();
      for (double& h : y) h += jitter(rng);
    } else {
      for (std::size_t k = length(rng); k > 0; --k) {
        x.push_back(task(rng));
        y.push_back(hour(rng));
      }
    }
    random_xs.push_back(x);
    random_ys.push_back(y);
  }
  // Two singletons 0.8 h apart: bound 0.64 counted once, an edge
  // candidate at phi = 1; counted twice it would reach 1.28.
  random_xs.push_back({1.0});
  random_ys.push_back({0.0});
  random_xs.push_back({1.0});
  random_ys.push_back({0.8});
  // Bounds exactly at phi, which must not be emitted: two singletons in
  // neighboring cells at phi = 1, and two series in one cell at phi = 25.
  random_xs.push_back({1.0});
  random_ys.push_back({0.5});
  random_xs.push_back({2.0});
  random_ys.push_back({0.5});
  random_xs.push_back({1.0, 1.0});
  random_ys.push_back({0.5, 0.25});
  random_xs.push_back({1.0, 1.0});
  random_ys.push_back({3.5, 4.25});

  std::vector<std::vector<double>> cluster_xs, cluster_ys;
  std::uniform_real_distribution<double> inside(0.1, 4.9);
  for (std::size_t i = 0; i < 40; ++i) {
    const std::size_t len = 1 + i % 3;
    cluster_xs.emplace_back(len, 1.0);
    std::vector<double> y(len);
    for (double& h : y) h = inside(rng);
    cluster_ys.push_back(y);
  }

  // 4 tasks over 200 hours: every slab is crowded and only the time axes
  // keep the windows selective.  Every tenth account replays the one
  // before it a few minutes later.
  std::vector<std::vector<double>> long_xs, long_ys;
  std::uniform_int_distribution<std::size_t> schedule(1, 4);
  std::uniform_real_distribution<double> start(0.0, 200.0);
  std::uniform_real_distribution<double> step(0.05, 0.3);
  for (std::size_t i = 0; i < 400; ++i) {
    std::vector<double> x, y;
    if (i % 10 == 9) {
      x = long_xs.back();
      y = long_ys.back();
      const double shift = jitter(rng);
      for (double& h : y) h += shift;
    } else {
      std::vector<double> tasks{1.0, 2.0, 3.0, 4.0};
      std::shuffle(tasks.begin(), tasks.end(), rng);
      double h = start(rng);
      for (std::size_t k = schedule(rng); k > 0; --k) {
        x.push_back(tasks[k - 1]);
        y.push_back(h);
        h += step(rng);
      }
    }
    long_xs.push_back(x);
    long_ys.push_back(y);
  }

  // Singletons in neighboring slabs: the four-term box gap would reach
  // phi, the collapsed one-term rule keeps them (bounds 0.1625 at 0.25,
  // 0.52 at 1, 13 at 16).  A twin and a two-element series share slabs
  // with some of them.
  const std::vector<std::vector<double>> singleton_xs = {
      {40.4}, {40.6}, {30.8}, {31.2}, {19.0}, {22.0}, {22.0}, {22.0, 22.0}};
  const std::vector<std::vector<double>> singleton_ys = {
      {0.0}, {0.35}, {0.0}, {0.6}, {0.0}, {2.0}, {2.0}, {2.0, 2.1}};

  // The cell clamp: +-1e300 twins far beyond it, values either side of
  // 2^30 cells, a pair merged into the clamped cell whose bound overflows,
  // and timestamps at 1e300.
  const double big = 1073741824.0;  // 2^30
  const std::vector<std::vector<double>> clamp_xs = {
      {1e300, 1e300}, {1e300, 1e300}, {-1e300}, {-1e300},
      {big - 0.5},    {big + 0.2},    {big + 0.6}, {big + 3.0},
      {1.0, 2.0},     {1.0, 2.0},     {-big - 0.3}, {-big - 0.1}};
  const std::vector<std::vector<double>> clamp_ys = {
      {0.0, 1.0},     {0.1, 1.1},     {2.0},      {2.3},
      {0.0},          {0.0},          {0.1},      {0.0},
      {1e300, 1e300}, {1e300, 1e300}, {5.0},      {5.2}};

  // Non-finite interior values with finite endpoints: they move only the
  // extremes (NaN takes no part), so twins with the same infinity must
  // still be emitted, and a one-sided infinity must be dropped.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> nonfinite_xs = {
      {1.0, inf, 2.0},  {1.0, inf, 2.0},  {1.0, -inf, 2.0}, {1.0, -inf, 2.0},
      {1.0, 1.5, 2.0},  {1.0, nan, 2.0},  {1.0, 2.0},       {1.0, 3.0, 2.0},
      {1.0, 2.0, 2.0},  {1.0, 2.0, 2.0}};
  const std::vector<std::vector<double>> nonfinite_ys = {
      {0.0, 0.5, 1.0},  {0.1, 0.5, 1.0},  {0.0, 0.5, 1.0},  {0.0, 0.4, 1.0},
      {0.0, 0.5, 1.0},  {0.0, 0.5, 1.0},  {0.0, 1.0},       {0.0, nan, 1.0},
      {0.0, inf, 1.0},  {0.0, inf, 1.1}};

  const struct {
    const char* name;
    const std::vector<std::vector<double>>& xs;
    const std::vector<std::vector<double>>& ys;
    bool one_cell_at_25;
  } cases[] = {{"random", random_xs, random_ys, false},
               {"one cell", cluster_xs, cluster_ys, true},
               {"4 tasks 200 h", long_xs, long_ys, false},
               {"singletons", singleton_xs, singleton_ys, false},
               {"clamp", clamp_xs, clamp_ys, false},
               {"non-finite interior", nonfinite_xs, nonfinite_ys, false}};
  for (const auto& c : cases) {
    candidate::SeriesTable series;
    for (std::size_t i = 0; i < c.xs.size(); ++i) {
      series.append(c.xs[i], c.ys[i]);
    }
    const auto fps = candidate::fingerprints_of(series);
    for (const double phi : {0.01, 0.25, 1.0, 16.0, 25.0}) {
      const std::string where =
          std::string(c.name) + " phi " + std::to_string(phi);
      candidate::BlockingStats stats;
      const auto pairs = candidate::endpoint_grid_candidates(fps, phi, &stats);
      const auto expected = pairs_below_blocking_bound(c.xs, c.ys, phi);
      EXPECT_FALSE(expected.empty()) << where;
      EXPECT_EQ(pairs, expected) << where;
      EXPECT_EQ(stats.candidates, pairs.size());
      EXPECT_GE(stats.box_pairs, stats.candidates);
      expect_drops_pruned_by_envelope(series, fps, pairs, phi, where);
    }
    if (c.one_cell_at_25) {
      candidate::BlockingStats stats;
      (void)candidate::endpoint_grid_candidates(fps, 25.0, &stats);
      EXPECT_EQ(stats.slabs, 1u);
      EXPECT_EQ(stats.box_pairs, 40u * 39u / 2u);
    }
  }
}

// --- Cascade ---------------------------------------------------------------

TEST(LbCascade, PrunesOnlyPairsBeyondPhiAndReturnsExactValues) {
  std::mt19937_64 rng(1234);
  std::uniform_real_distribution<double> value(0.0, 4.0);
  std::uniform_int_distribution<std::size_t> length(1, 12);
  const std::size_t n = 48;
  std::vector<std::vector<double>> xs(n), ys(n);
  candidate::SeriesTable series;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = length(rng);
    for (std::size_t k = 0; k < len; ++k) {
      xs[i].push_back(value(rng));
      ys[i].push_back(value(rng));
    }
    series.append(xs[i], ys[i]);
  }
  const auto fps = candidate::fingerprints_of(series);
  candidate::CascadeOptions options;
  options.phi = 6.0;
  const candidate::LbCascade cascade(series, fps, options);
  candidate::CascadeStats stats;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double d = -1.0;
      const auto outcome = cascade.evaluate(i, j, &d);
      stats.count(outcome);
      const double exact = dtw::dtw_total_cost(xs[i], xs[j], {}) +
                           dtw::dtw_total_cost(ys[i], ys[j], {});
      if (outcome == candidate::CascadeOutcome::kExact) {
        EXPECT_DOUBLE_EQ(d, exact);
      } else if (outcome == candidate::CascadeOutcome::kUpperBoundAccepted) {
        // An accepted pair is an edge, and d is the diagonal cost: an upper
        // bound on the exact value, below phi.
        EXPECT_LT(exact, options.phi);
        EXPECT_LT(d, options.phi);
        EXPECT_GE(d, exact);
      } else {
        // Every prune stage is a valid lower bound: a discarded pair's true
        // dissimilarity really is at or beyond phi.
        EXPECT_GE(exact, options.phi)
            << "outcome " << static_cast<int>(outcome);
      }
    }
  }
  // The random data should exercise the funnel, not bypass it.
  EXPECT_GT(stats.endpoint_pruned + stats.envelope_pruned, 0u);
  EXPECT_GT(stats.exact_pairs, 0u);
  EXPECT_EQ(stats.evaluated, n * (n - 1) / 2);
}

// The diagonal upper bound decides exactly as the DP does next to phi.
// Equal-length pairs, mostly small perturbations of each other (so the
// diagonal is the optimal path and U equals D), with phi within 1e-9
// relative of the exact D on both sides, one ulp away, and at D itself:
// the decision must equal dtw_total_cost(X) + dtw_total_cost(Y) < phi at
// band 0 and band 2.  Inside the margin the DP runs; phi exactly at the
// inflated bound is not an accept, one ulp above it is.
TEST(LbCascade, UpperBoundDecisionMatchesDtwNearPhi) {
  std::mt19937_64 rng(77);
  std::uniform_int_distribution<std::size_t> length(1, 10);
  std::uniform_real_distribution<double> task(1.0, 8.0);
  std::uniform_real_distribution<double> hour(0.0, 5.0);
  std::normal_distribution<double> small(0.0, 0.05);
  std::normal_distribution<double> large(0.0, 1.0);
  candidate::SeriesTable series;
  std::vector<std::vector<double>> xs, ys;
  const std::size_t pairs = 120;
  for (std::size_t t = 0; t < pairs; ++t) {
    const std::size_t len = length(rng);
    std::vector<double> xi(len), yi(len);
    for (std::size_t k = 0; k < len; ++k) {
      xi[k] = std::round(task(rng));
      yi[k] = hour(rng);
    }
    std::vector<double> xj = xi, yj = yi;
    auto& noise = t % 4 == 3 ? large : small;
    for (std::size_t k = 0; k < len; ++k) {
      xj[k] += noise(rng);
      yj[k] += noise(rng);
    }
    for (const auto* s : {&xi, &xj}) xs.push_back(*s);
    for (const auto* s : {&yi, &yj}) ys.push_back(*s);
    series.append(xi, yi);
    series.append(xj, yj);
  }
  const auto fps = candidate::fingerprints_of(series);
  using candidate::CascadeOutcome;
  std::size_t accepted = 0, inside_margin = 0;
  for (const std::size_t band : {0ul, 2ul}) {
    const dtw::DtwOptions dtw_options{.band = band};
    for (std::size_t t = 0; t < pairs; ++t) {
      const std::size_t i = 2 * t, j = 2 * t + 1;
      const double exact = dtw::dtw_total_cost(xs[i], xs[j], dtw_options) +
                           dtw::dtw_total_cost(ys[i], ys[j], dtw_options);
      ASSERT_GT(exact, 0.0);
      std::vector<double> phis;
      for (const double rel : {1e-9, 1e-10, 1e-12, 1e-14}) {
        phis.push_back(exact * (1.0 + rel));
        phis.push_back(exact * (1.0 - rel));
      }
      phis.push_back(exact);
      phis.push_back(std::nextafter(exact, 0.0));
      phis.push_back(std::nextafter(exact, 1e300));
      for (const double phi : phis) {
        const candidate::LbCascade cascade(
            series, fps, candidate::CascadeOptions{.phi = phi, .dtw = dtw_options});
        double d = std::numeric_limits<double>::infinity();
        const CascadeOutcome outcome = cascade.evaluate(i, j, &d);
        const bool edge = outcome == CascadeOutcome::kUpperBoundAccepted ||
                          (outcome == CascadeOutcome::kExact && d < phi);
        EXPECT_EQ(edge, exact < phi)
            << "pair " << t << " band " << band << " phi " << phi;
        if (outcome == CascadeOutcome::kUpperBoundAccepted) ++accepted;
        if (outcome == CascadeOutcome::kExact && d < phi) ++inside_margin;
      }
      // The acceptance threshold itself: strict.
      double upper = 0.0;
      for (std::size_t k = 0; k < xs[i].size(); ++k) {
        upper += (xs[i][k] - xs[j][k]) * (xs[i][k] - xs[j][k]);
      }
      double upper_y = 0.0;
      for (std::size_t k = 0; k < ys[i].size(); ++k) {
        upper_y += (ys[i][k] - ys[j][k]) * (ys[i][k] - ys[j][k]);
      }
      upper += upper_y;
      const double at = candidate::inflated_upper_bound(upper, xs[i].size());
      double d = 0.0;
      EXPECT_NE(candidate::LbCascade(series, fps,
                                     candidate::CascadeOptions{
                                         .phi = at, .dtw = dtw_options})
                    .evaluate(i, j, &d),
                CascadeOutcome::kUpperBoundAccepted)
          << "pair " << t << " band " << band;
      EXPECT_EQ(candidate::LbCascade(
                    series, fps,
                    candidate::CascadeOptions{
                        .phi = std::nextafter(at, 1e300), .dtw = dtw_options})
                    .evaluate(i, j, &d),
                CascadeOutcome::kUpperBoundAccepted)
          << "pair " << t << " band " << band;
      EXPECT_EQ(d, upper);
    }
  }
  // Both sides of the margin are exercised.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(inside_margin, 0u);
}

// --- AG-TR -----------------------------------------------------------------

TEST(AgTrCandidates, GroupingBitIdenticalToExactAllPairs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 11ull}) {
    const auto input = scenario_input(40, 4, 5, 20, seed);
    core::AgTrStats stats;
    const auto exact = oracle::agtr_all_pairs(input);
    const auto cand = core::AgTr().group_with_stats(input, &stats);
    // Bit-identical, not merely equivalent: same labels, hence the same
    // groups with the same (ascending) members (components are read off a
    // union-find, so they do not depend on the order the edges arrive in).
    EXPECT_EQ(exact.labels(), cand.labels()) << "seed " << seed;
    EXPECT_EQ(stats.blocked + stats.candidates, stats.pairs);
    EXPECT_GT(stats.blocked, 0u) << "blocking should drop some pairs";
  }
}

// Short random trajectories whose dissimilarities straddle phi, so edges
// sit next to every cell boundary and cascade bound: any over-pruning
// changes the grouping.  The band exercises the strict LB_Keogh stage.
TEST(AgTrCandidates, RandomTrajectoriesNearPhiMatchAllPairs) {
  std::mt19937_64 rng(2024);
  std::uniform_int_distribution<std::size_t> length(1, 4);
  std::uniform_int_distribution<std::size_t> task(0, 2);
  std::uniform_real_distribution<double> hour(0.0, 3.0);
  for (int trial = 0; trial < 8; ++trial) {
    core::FrameworkInput input;
    input.task_count = 3;
    input.accounts.resize(80);
    for (auto& account : input.accounts) {
      std::vector<double> hours(length(rng));
      for (double& h : hours) h = hour(rng);
      std::sort(hours.begin(), hours.end());
      for (const double h : hours) {
        account.reports.push_back({task(rng), -60.0, h});
      }
    }
    for (const std::size_t band : {0ul, 1ul}) {
      core::AgTrOptions opt;
      opt.dtw.band = band;
      const auto exact = oracle::agtr_all_pairs(input, opt);
      const auto grouping = core::AgTr(opt).group(input);
      EXPECT_EQ(exact.labels(), grouping.labels())
          << "trial " << trial << " band " << band;
      // Neither one giant component nor all singletons.
      EXPECT_GT(exact.group_count(), 10u);
      EXPECT_LT(exact.group_count(), 70u);
    }
  }
}

// Eq. (7) mode skips blocking and the cascade (the bounds do not hold for
// the path-normalized distance) and must still equal the all-pairs fold.
TEST(AgTrCandidates, PathNormalizedModeMatchesAllPairs) {
  for (std::uint64_t seed : {1ull, 2ull}) {
    const auto input = scenario_input(40, 4, 5, 20, seed);
    core::AgTrOptions opt;
    opt.mode = core::DtwMode::kPathNormalized;
    opt.phi = 0.3;
    core::AgTrStats stats;
    const auto grouping = core::AgTr(opt).group_with_stats(input, &stats);
    const auto exact = oracle::agtr_all_pairs(input, opt);
    EXPECT_EQ(exact.labels(), grouping.labels()) << "seed " << seed;
    EXPECT_EQ(stats.blocked, 0u);
    EXPECT_EQ(stats.lb_pruned, 0u);
    EXPECT_LT(exact.group_count(), input.accounts.size());
  }
}

TEST(AgTrCandidates, FunnelCountersAreConsistent) {
  const auto input = scenario_input(50, 5, 4, 25, 5);
  core::AgTrStats stats;
  (void)core::AgTr().group_with_stats(input, &stats);
  EXPECT_EQ(stats.lb_pruned,
            stats.endpoint_pruned + stats.envelope_pruned +
                stats.keogh_pruned);
  EXPECT_EQ(stats.candidates, stats.lb_pruned + stats.upper_bound_accepted +
                                  stats.task_abandoned + stats.exact_pairs);
}

// Non-finite and extreme timestamps.  A NaN or infinite endpoint keeps an
// account out of the grid (its endpoint bound is never < phi); +-1e300
// overflows any cell index and is clamped, which only merges cells.  The
// grouping must still equal the all-pairs fold, including the edges
// between twins far beyond the clamp.
TEST(AgTrCandidates, ExtremeTimestampsMatchAllPairs) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<std::pair<std::size_t, double>>> schedules = {
      {{0, 1.0}, {1, 1.5}},
      {{0, 1.0}, {1, 1.5}},
      {{0, inf}},
      {{0, inf}},
      {{1, -inf}, {2, 2.0}},
      {{0, nan}, {1, 1.0}},
      {{0, 1.0}, {1, nan}},
      {{2, 1e300}, {1, 1e300}},
      {{2, 1e300}, {1, 1e300}},
      {{2, -1e300}},
      {{2, -1e300}},
      {{0, 1.0}, {1, inf}, {2, 2.0}},
      {{0, 1.0}, {1, inf}, {2, 2.0}},
      {},
  };
  core::FrameworkInput input;
  input.task_count = 3;
  for (const auto& schedule : schedules) {
    core::AccountTrace account;
    for (const auto& [t, h] : schedule) {
      account.reports.push_back({t, -60.0, h});
    }
    input.accounts.push_back(account);
  }
  for (const double phi : {0.01, 1.0, 1e6}) {
    for (const std::size_t band : {0ul, 1ul}) {
      core::AgTrOptions opt;
      opt.phi = phi;
      opt.dtw.band = band;
      const auto exact = oracle::agtr_all_pairs(input, opt);
      const auto grouping = core::AgTr(opt).group(input);
      EXPECT_EQ(exact.labels(), grouping.labels())
          << "phi " << phi << " band " << band;
      // The finite twins and the +-1e300 twins are edges.
      EXPECT_EQ(grouping.group_of(0), grouping.group_of(1));
      EXPECT_EQ(grouping.group_of(7), grouping.group_of(8));
      EXPECT_EQ(grouping.group_of(9), grouping.group_of(10));
    }
  }
}

// Test-local recount of the AG-TR funnel.  A window pair is a pair of
// non-empty series with finite endpoints whose cells on the sqrt(phi) grid
// are within +-1 on x_first, x_last and y_first, unless their slabs (the
// (x_first, x_last) cells) differ and the slabs' endpoint boxes already put
// the endpoint bound at >= phi.  Each window pair is classified by the
// first stage that settles it: the blocking bound, the cascade's lower
// bounds, the diagonal upper bound, then the DTW DPs.
core::AgTrStats recount_funnel(const core::FrameworkInput& input,
                               const core::AgTrOptions& opt) {
  const std::size_t n = input.accounts.size();
  std::vector<std::vector<double>> xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = core::AgTr::task_series(input.accounts[i]);
    ys[i] = core::AgTr::timestamp_series(input.accounts[i]);
  }
  const double width = std::sqrt(opt.phi);
  const auto cell = [&](double v) {
    return static_cast<std::int64_t>(std::floor(v / width));
  };
  const auto near = [&](double a, double b) {
    return std::abs(cell(a) - cell(b)) <= 1;
  };
  // Each slab's box over (x_first, x_last, y_first, y_last) and whether it
  // holds a singleton.
  struct Box {
    std::array<double, 4> lo, hi;
    bool singleton = false;
  };
  const auto ends = [&](std::size_t i) {
    return std::array<double, 4>{xs[i].front(), xs[i].back(), ys[i].front(),
                                 ys[i].back()};
  };
  const auto slab = [&](std::size_t i) {
    return std::make_pair(cell(xs[i].front()), cell(xs[i].back()));
  };
  std::map<std::pair<std::int64_t, std::int64_t>, Box> boxes;
  for (std::size_t i = 0; i < n; ++i) {
    if (xs[i].empty()) continue;
    const auto e = ends(i);
    auto [it, fresh] = boxes.try_emplace(slab(i), Box{e, e});
    for (std::size_t k = 0; k < 4; ++k) {
      it->second.lo[k] = std::min(it->second.lo[k], e[k]);
      it->second.hi[k] = std::max(it->second.hi[k], e[k]);
    }
    it->second.singleton |= xs[i].size() == 1;
  }
  const auto box_bound = [](const Box& a, const Box& b) {
    std::array<double, 4> g{};
    for (std::size_t k = 0; k < 4; ++k) {
      g[k] = b.lo[k] > a.hi[k]   ? b.lo[k] - a.hi[k]
             : a.lo[k] > b.hi[k] ? a.lo[k] - b.hi[k]
                                 : 0.0;
    }
    if (a.singleton && b.singleton) return g[0] * g[0] + g[2] * g[2];
    return (g[0] * g[0] + g[1] * g[1]) + (g[2] * g[2] + g[3] * g[3]);
  };
  const auto diagonal = [](const std::vector<double>& a,
                           const std::vector<double>& b) {
    double sum = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k) sum += (a[k] - b[k]) * (a[k] - b[k]);
    return sum;
  };
  core::AgTrStats s;
  s.pairs = n * (n - 1) / 2;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const auto &xi = xs[i], &xj = xs[j], &yi = ys[i], &yj = ys[j];
      if (xi.empty() || xj.empty()) continue;
      if (!near(xi.front(), xj.front()) || !near(xi.back(), xj.back()) ||
          !near(yi.front(), yj.front())) {
        continue;
      }
      if (slab(i) != slab(j) &&
          box_bound(boxes.at(slab(i)), boxes.at(slab(j))) >= opt.phi) {
        continue;
      }
      ++s.candidates;
      double bx = term_bound(xi, xj);
      double by = term_bound(yi, yj);
      if (bx + by >= opt.phi) {
        ++s.endpoint_pruned;
        continue;
      }
      const auto envelope = [](const std::vector<double>& query,
                               const std::vector<double>& other) {
        return candidate::envelope_bound(query, candidate::profile_of(other));
      };
      bx = std::max({bx, envelope(xi, xj), envelope(xj, xi)});
      by = std::max({by, envelope(yi, yj), envelope(yj, yi)});
      if (bx + by >= opt.phi) {
        ++s.envelope_pruned;
        continue;
      }
      if (opt.dtw.band > 0 && xi.size() == xj.size()) {
        bx = std::max({bx, dtw::lb_keogh(xi, xj, opt.dtw.band),
                       dtw::lb_keogh(xj, xi, opt.dtw.band)});
        by = std::max({by, dtw::lb_keogh(yi, yj, opt.dtw.band),
                       dtw::lb_keogh(yj, yi, opt.dtw.band)});
        if (bx + by >= opt.phi) {
          ++s.keogh_pruned;
          continue;
        }
      }
      if (xi.size() == xj.size() &&
          candidate::inflated_upper_bound(diagonal(xi, xj) + diagonal(yi, yj),
                                          xi.size()) < opt.phi) {
        ++s.upper_bound_accepted;
        continue;
      }
      if (dtw::dtw_total_cost(xi, xj, opt.dtw) >= opt.phi) {
        ++s.task_abandoned;
      } else {
        ++s.exact_pairs;
      }
    }
  }
  s.blocked = s.pairs - s.candidates;
  s.lb_pruned = s.endpoint_pruned + s.envelope_pruned + s.keogh_pruned;
  return s;
}

// Every AgTrStats counter against the recount, at the default phi and at
// phi = 16 (where more pairs reach the later stages), with and without a
// Sakoe-Chiba band so the strict LB_Keogh stage runs.
TEST(AgTrCandidates, FunnelCountersMatchBruteForceRecount) {
  const auto input = scenario_input(50, 5, 4, 25, 5);
  for (const double phi : {1.0, 16.0}) {
    for (const std::size_t band : {0ul, 2ul}) {
      core::AgTrOptions opt;
      opt.phi = phi;
      opt.dtw.band = band;
      core::AgTrStats stats;
      (void)core::AgTr(opt).group_with_stats(input, &stats);
      const core::AgTrStats want = recount_funnel(input, opt);
      const std::string where =
          "phi " + std::to_string(phi) + " band " + std::to_string(band);
      EXPECT_EQ(stats.pairs, want.pairs) << where;
      EXPECT_EQ(stats.blocked, want.blocked) << where;
      EXPECT_EQ(stats.candidates, want.candidates) << where;
      EXPECT_EQ(stats.lb_pruned, want.lb_pruned) << where;
      EXPECT_EQ(stats.endpoint_pruned, want.endpoint_pruned) << where;
      EXPECT_EQ(stats.envelope_pruned, want.envelope_pruned) << where;
      EXPECT_EQ(stats.keogh_pruned, want.keogh_pruned) << where;
      EXPECT_EQ(stats.task_abandoned, want.task_abandoned) << where;
      EXPECT_EQ(stats.upper_bound_accepted, want.upper_bound_accepted)
          << where;
      EXPECT_EQ(stats.exact_pairs, want.exact_pairs) << where;
      EXPECT_GT(want.endpoint_pruned, 0u) << where;
      EXPECT_GT(want.upper_bound_accepted, 0u) << where;
      EXPECT_GT(want.task_abandoned + want.exact_pairs, 0u) << where;
      // At phi = 16 the band is tight enough for LB_Keogh to prune.
      if (band > 0 && phi > 1.0) {
        EXPECT_GT(want.keogh_pruned, 0u) << where;
      }
    }
  }
}

// --- AG-TS -----------------------------------------------------------------

// Thresholds covering the dense path (rho < 0), the paper's positive-
// affinity rule (rho = 0) and its example value (rho = 1).
constexpr double kAgTsRhos[] = {-0.5, 0.0, 1.0};

TEST(AgTsSparse, MatchesDensePartitionOnScenarios) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 11ull}) {
    const auto input = scenario_input(40, 4, 5, 20, seed);
    for (const double rho : kAgTsRhos) {
      core::AgTsOptions opt;
      opt.rho = rho;
      core::AgTsStats stats;
      const auto grouping = core::AgTs(opt).group_with_stats(input, &stats);
      EXPECT_EQ(stats.sparse, rho >= 0.0);
      // The join runs exactly whenever the sparse path is taken.
      EXPECT_EQ(stats.join.exhaustive, stats.sparse);
      EXPECT_EQ(grouping.labels(), oracle::agts_dense_labels(input, rho))
          << "seed " << seed << " rho " << rho;
    }
  }
}

// Row-major task bitsets, the brute-force oracles' representation.
std::vector<std::uint64_t> task_rows(
    const std::vector<std::vector<std::uint32_t>>& sets, std::size_t words) {
  std::vector<std::uint64_t> rows(sets.size() * words, 0);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    for (const std::uint32_t t : sets[i]) {
      rows[i * words + t / 64] |= std::uint64_t{1} << (t % 64);
    }
  }
  return rows;
}

std::size_t row_overlap(const std::vector<std::uint64_t>& rows,
                        std::size_t words, std::size_t i, std::size_t j) {
  std::size_t both = 0;
  for (std::size_t w = 0; w < words; ++w) {
    both += static_cast<std::size_t>(
        std::popcount(rows[i * words + w] & rows[j * words + w]));
  }
  return both;
}

// The join's CSR input from per-account sorted, duplicate-free task lists.
candidate::TaskSetTable table_of(
    const std::vector<std::vector<std::uint32_t>>& sets) {
  candidate::TaskSetTable table;
  for (const auto& set : sets) {
    table.task.insert(table.task.end(), set.begin(), set.end());
    table.offset.push_back(table.task.size());
  }
  return table;
}

// The join's exact edge list on `sets` against brute force under the
// loosest admissible predicate T > 2L; returns whether any edge exists.
bool join_matches_brute_force(
    const std::vector<std::vector<std::uint32_t>>& sets,
    const std::string& what) {
  const auto is_edge = [](std::size_t both, std::size_t alone) {
    return both > 2 * alone;
  };
  std::uint32_t top = 0;
  for (const auto& set : sets) {
    if (!set.empty()) top = std::max(top, set.back());
  }
  const std::size_t words = top / 64 + 1;
  const auto rows = task_rows(sets, words);
  std::vector<std::uint64_t> want;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    for (std::size_t j = i + 1; j < sets.size(); ++j) {
      const std::size_t both = row_overlap(rows, words, i, j);
      if (is_edge(both, sets[i].size() + sets[j].size() - 2 * both)) {
        want.push_back(candidate::pack_pair(i, j));
      }
    }
  }
  candidate::SetJoinStats stats;
  EXPECT_EQ(candidate::sparse_affinity_edges(table_of(sets), is_edge, &stats),
            want)
      << what;
  EXPECT_TRUE(stats.exhaustive);
  return !want.empty();
}

// Above the 4,096 distinct sets where a MinHash tier used to take over:
// 5,000 accounts over 64 tasks with random 4-12 task schedules, Sybil
// groups of five replaying one schedule, and near-clones (one task
// swapped, dropped or added) so the join must find cross-set edges.
// Labels must equal a brute-force popcount sweep over all pairs.
TEST(AgTsSparse, ExactJoinMatchesBruteForceAboveOldCap) {
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kAccounts = 5000;
  std::mt19937_64 rng(4096);
  std::uniform_int_distribution<std::size_t> task(0, kTasks - 1);
  std::uniform_int_distribution<std::size_t> length(4, 12);
  std::vector<std::vector<std::uint32_t>> sets(kAccounts);
  for (std::size_t i = 0; i < kAccounts; ++i) {
    std::set<std::uint32_t> chosen;
    if (i < 1000 && i % 5 != 0) {
      const auto& schedule = sets[i - i % 5];
      chosen.insert(schedule.begin(), schedule.end());
      if (i >= 500) {
        // Near-clone: drop the first or last task and/or add a new one.
        if (i % 5 != 3) {
          chosen.erase(i % 2 != 0 ? chosen.begin() : std::prev(chosen.end()));
        }
        const std::size_t target = chosen.size() + (i % 5 != 2 ? 1 : 0);
        while (chosen.size() < target) {
          chosen.insert(static_cast<std::uint32_t>(task(rng)));
        }
      }
    } else {
      const std::size_t len = length(rng);
      while (chosen.size() < len) {
        chosen.insert(static_cast<std::uint32_t>(task(rng)));
      }
    }
    sets[i].assign(chosen.begin(), chosen.end());
  }
  core::FrameworkInput input;
  input.task_count = kTasks;
  input.accounts.resize(kAccounts);
  for (std::size_t i = 0; i < kAccounts; ++i) {
    for (const std::uint32_t t : sets[i]) {
      input.accounts[i].reports.push_back({t, -60.0, 0.0});
    }
  }
  const auto rows = task_rows(sets, 1);
  for (const double rho : {0.0, 1.0}) {
    core::AgTsOptions opt;
    opt.rho = rho;
    core::AgTsStats stats;
    const auto grouping = core::AgTs(opt).group_with_stats(input, &stats);
    ASSERT_TRUE(stats.sparse);
    EXPECT_TRUE(stats.join.exhaustive);
    EXPECT_GT(stats.join.distinct_sets, 4096u);
    EXPECT_GT(stats.join.collapsed, 0u);
    graph::UnionFind brute(kAccounts);
    std::size_t cross_edges = 0;
    for (std::size_t i = 0; i < kAccounts; ++i) {
      for (std::size_t j = i + 1; j < kAccounts; ++j) {
        const std::size_t both = row_overlap(rows, 1, i, j);
        const std::size_t alone = sets[i].size() + sets[j].size() - 2 * both;
        if (core::AgTs::affinity(both, alone, kTasks) > rho) {
          brute.unite(i, j);
          cross_edges += alone > 0;
        }
      }
    }
    EXPECT_GT(cross_edges, 0u) << "rho " << rho;
    EXPECT_EQ(grouping.labels(), brute.labels()) << "rho " << rho;
  }
}

// A task id beyond 32 bits is rejected, not wrapped onto task id - 2^32:
// here account 1's task 2^32 + 1 would wrap onto task 1, giving it account
// 0's set and a false Sybil group.
TEST(AgTsSparse, RejectsTaskIdsBeyond32Bits) {
  core::FrameworkInput input;
  input.task_count = (std::size_t{1} << 32) + 8;
  input.accounts.resize(2);
  for (auto& account : input.accounts) {
    account.reports = {{1, -60.0, 0.0}, {2, -60.0, 0.0}, {3, -60.0, 0.0}};
  }
  input.accounts[1].reports[0].task = (std::size_t{1} << 32) + 1;
  EXPECT_THROW(core::AgTs::task_sets(input), std::invalid_argument);
  EXPECT_THROW(core::AgTs().group(input), std::invalid_argument);
}

// Repeated (account, task) reports count once, in any order, and empty
// accounts stay singletons: the flat builder's sets equal the sorted,
// duplicate-free task lists, and AgTs groups exactly as the dense Eq. (6)
// oracle.  Some accounts keep every task below 64 and the others reach up
// to task 99, where several tasks share a bit of the join's one-word rows.
TEST(AgTsSparse, RepeatedReportsAndEmptyAccountsMatchOracle) {
  constexpr std::size_t kTasks = 100;
  constexpr std::size_t kAccounts = 90;
  std::mt19937_64 rng(23);
  std::uniform_int_distribution<std::size_t> length(3, 9);
  core::FrameworkInput input;
  input.task_count = kTasks;
  input.accounts.resize(kAccounts);
  std::vector<std::set<std::uint32_t>> want(kAccounts);
  for (std::size_t i = 0; i < kAccounts; ++i) {
    if (i % 9 == 4) continue;  // empty account
    std::vector<std::size_t> tasks;
    if (i == 1) {
      tasks = {64, 63, 2, 0};  // 0 and 64 share a bit of the one-word row
    } else if (i % 3 == 2) {
      // A replay of the previous account's set, reported in reverse.
      for (const std::uint32_t t : want[i - 1]) tasks.insert(tasks.begin(), t);
    } else {
      std::uniform_int_distribution<std::size_t> task(
          0, i % 2 == 0 ? 63 : kTasks - 1);
      const std::size_t len = length(rng);
      for (std::size_t k = 0; k < len; ++k) tasks.push_back(task(rng));
    }
    // Report some tasks twice, at the end and in place.
    for (std::size_t k = 0; k < tasks.size(); k += 2) tasks.push_back(tasks[k]);
    if (tasks.size() > 1) {
      const std::size_t first = tasks[0];
      tasks.insert(tasks.begin() + 1, first);
    }
    for (const std::size_t t : tasks) {
      input.accounts[i].reports.push_back({t, -60.0, 0.0});
      want[i].insert(static_cast<std::uint32_t>(t));
    }
  }
  const auto sets = core::AgTs::task_sets(input);
  ASSERT_EQ(sets.accounts(), kAccounts);
  std::size_t collapsed_pairs = 0;
  for (std::size_t i = 0; i < kAccounts; ++i) {
    const auto got = sets.of(i);
    EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
              std::vector<std::uint32_t>(want[i].begin(), want[i].end()))
        << "account " << i;
    collapsed_pairs += i > 0 && !want[i].empty() && want[i] == want[i - 1];
  }
  EXPECT_GT(collapsed_pairs, 10u);
  for (const double rho : {0.0, 0.02, 0.5, 1.0}) {
    core::AgTsOptions opt;
    opt.rho = rho;
    EXPECT_EQ(core::AgTs(opt).group(input).labels(),
              oracle::agts_dense_labels(input, rho))
        << "rho " << rho;
  }
}

TEST(AgTsSparse, NegativeRhoKeepsDensePath) {
  const auto input = scenario_input(20, 2, 3, 12, 9);
  core::AgTsOptions opt;
  opt.rho = -0.5;
  core::AgTsStats stats;
  (void)core::AgTs(opt).group_with_stats(input, &stats);
  EXPECT_FALSE(stats.sparse) << "rho < 0 must stay dense";
}

// Task universes below and well above one 64-bit word (where several
// tasks share each bit of the join's one-word rows).
TEST(SetJoin, ComponentsMatchBruteForceOnRandomSets) {
  for (const std::size_t m : {std::size_t{30}, std::size_t{300}}) {
    std::mt19937_64 rng(99 + m);
    const std::size_t n = 400;
    std::uniform_int_distribution<std::uint32_t> task(0, m - 1);
    std::uniform_int_distribution<int> size(0, 10);
    std::vector<std::vector<std::uint32_t>> sets(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::set<std::uint32_t> chosen;
      if (i >= 200 && i % 2 == 0) {
        // Near-clone of an earlier set: swap one task, keeping J > 2/3
        // for the larger sets.
        chosen.insert(sets[i - 200].begin(), sets[i - 200].end());
        if (!chosen.empty()) chosen.erase(chosen.begin());
        chosen.insert(task(rng));
      } else {
        const int s = size(rng);
        while (static_cast<int>(chosen.size()) < s) chosen.insert(task(rng));
      }
      sets[i].assign(chosen.begin(), chosen.end());
    }
    // Clone a few sets to exercise the collapse tier.
    for (std::size_t k = 0; k < 20; ++k) sets[n - 1 - 2 * k] = sets[k];
    const double rho = 6.0 / static_cast<double>(m);  // 0.2 at m = 30
    const auto is_edge = [&](std::size_t both, std::size_t alone) {
      return core::AgTs::affinity(both, alone, m) > rho;
    };
    candidate::SetJoinStats stats;
    const auto edges =
        candidate::sparse_affinity_edges(table_of(sets), is_edge, &stats);
    EXPECT_GT(stats.collapsed, 0u);
    graph::UnionFind sparse_uf(n);
    for (const std::uint64_t e : edges) {
      sparse_uf.unite(candidate::pair_first(e), candidate::pair_second(e));
    }
    graph::UnionFind brute_uf(n);
    std::size_t cross_edges = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        std::size_t both = 0;
        for (std::uint32_t t : sets[i]) {
          both += std::binary_search(sets[j].begin(), sets[j].end(), t);
        }
        const std::size_t alone = sets[i].size() + sets[j].size() - 2 * both;
        if (is_edge(both, alone)) {
          brute_uf.unite(i, j);
          cross_edges += alone > 0;
        }
      }
    }
    EXPECT_GT(cross_edges, 0u) << "m " << m;
    EXPECT_EQ(sparse_uf.labels(), brute_uf.labels()) << "m " << m;
  }
}

// The prefix join's boundaries, pair by pair.  For every |A|, |B| in
// 1..15 and every overlap T, two sets (plus, in one layout, decoys that
// make the unshared tasks common so the shared ones rank first) must give
// exactly the brute-force edge list under the loosest admissible
// predicate T > 2L.  This covers every floor(2s/3) + 1 and floor(4s/5) + 1
// prefix length, pairs exactly at 5T = 2(|A| + |B|) and at 3|B| = 2|A|, and
// equal-size ties; task ids are spread over three bitset words (m = 130),
// so several tasks share each bit of the join's one-word rows.
TEST(SetJoin, PrefixAndSizeBoundaries) {
  constexpr std::size_t kTasks = 130;
  const auto check = join_matches_brute_force;
  // Local task k -> a task id spread across the three words.
  const auto spread = [](std::size_t k) {
    return static_cast<std::uint32_t>((k * 67) % kTasks);
  };
  std::size_t at_ratio_boundary = 0, at_size_boundary = 0, edges = 0;
  for (std::size_t size_a = 1; size_a <= 15; ++size_a) {
    for (std::size_t size_b = 1; size_b <= 15; ++size_b) {
      for (std::size_t both = 0; both <= std::min(size_a, size_b); ++both) {
        // A = shared + own_a, B = shared + own_b, all distinct tasks.
        std::vector<std::uint32_t> a, b, decoy;
        std::size_t next = 0;
        for (std::size_t k = 0; k < both; ++k) {
          a.push_back(spread(next));
          b.push_back(spread(next++));
        }
        for (std::size_t k = both; k < size_a; ++k) {
          decoy.push_back(spread(next));
          a.push_back(spread(next++));
        }
        for (std::size_t k = both; k < size_b; ++k) {
          decoy.push_back(spread(next));
          b.push_back(spread(next++));
        }
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        std::sort(decoy.begin(), decoy.end());
        if (a == b) continue;  // the collapse tier, tested elsewhere
        at_ratio_boundary += 5 * both == 2 * (size_a + size_b);
        at_size_boundary += 3 * std::min(size_a, size_b) ==
                            2 * std::max(size_a, size_b);
        const std::string what = "|A| " + std::to_string(size_a) + " |B| " +
                                 std::to_string(size_b) + " T " +
                                 std::to_string(both);
        edges += check({a, b}, what);
        // Decoys: each unshared task appears in two more sets, so the
        // shared tasks rank rarest and the probe order flips.
        if (decoy.empty()) continue;
        std::vector<std::uint32_t> decoy_b = decoy;
        decoy_b.push_back(spread(next));
        std::sort(decoy_b.begin(), decoy_b.end());
        check({a, b, decoy, decoy_b}, what + " with decoys");
      }
    }
  }
  EXPECT_GT(at_ratio_boundary, 10u);
  EXPECT_GT(at_size_boundary, 10u);
  EXPECT_GT(edges, 50u);

  // Equal-size ties: eight sets of size 10, each one task away from the
  // next, processed in representative-id order.
  std::vector<std::vector<std::uint32_t>> ties;
  for (std::uint32_t s = 0; s < 8; ++s) {
    std::vector<std::uint32_t> set;
    for (std::uint32_t k = 0; k < 10; ++k) set.push_back(spread(s + k));
    std::sort(set.begin(), set.end());
    ties.push_back(set);
  }
  EXPECT_TRUE(check(ties, "equal-size ties"));

  // Tasks t and t + 64 share a bit of an OR-folded 64-bit word, so a
  // folded popcount alone would give T = 4 and drop this edge (T = 5,
  // L = 2); the join's fold adds A's excess tasks per bit back.
  EXPECT_TRUE(check({{0, 1, 2, 3, 4, 64}, {0, 1, 2, 3, 5, 64}}, "t, t + 64"));
  // Every task in one bit: the excess bound filters nothing (a negative
  // bound), and the exact check alone must find the edges.
  std::vector<std::vector<std::uint32_t>> one_bit;
  for (std::uint32_t drop = 0; drop < 3; ++drop) {
    std::vector<std::uint32_t> set;
    for (std::uint32_t k = 0; k < 10; ++k) {
      if (k != drop) set.push_back(64 * k);
    }
    one_bit.push_back(set);
  }
  one_bit.push_back({0, 64});
  EXPECT_TRUE(check(one_bit, "one bit"));
}

// The two-task prefixes' exact ends.  Each set's unshared tasks are the
// rarest (they occur once; the shared tasks occur in both sets and in a
// third set), so the shared tasks rank last and the second shared task
// sits at position |S| - T + 2 of each set S.  For the set probed later
// (the larger; the later id on a size tie) that is the probe prefix's last
// task, p + 1 with p = |A| - floor(2|A|/3), when T = floor(2|A|/3) + 1; for
// the set indexed first it is the index prefix's last task, q + 1 with
// q = |B| - floor(4|B|/5), when T = floor(4|B|/5) + 1.  A prefix one task
// shorter misses those edges.  Every |A|, |B| in 1..15 and every T, at
// m = 64 (the exact one-word rows) and m = 130 (three words folded onto
// one), against brute force.
TEST(SetJoin, SecondSharedTaskAtPrefixEnds) {
  for (const std::size_t m : {std::size_t{64}, std::size_t{130}}) {
    const auto spread = [m](std::size_t k) {
      return static_cast<std::uint32_t>((k * 67) % m);
    };
    std::size_t at_probe_end = 0, at_index_end = 0;
    for (std::size_t size_a = 1; size_a <= 15; ++size_a) {
      for (std::size_t size_b = 1; size_b <= 15; ++size_b) {
        for (std::size_t both = 0; both <= std::min(size_a, size_b); ++both) {
          std::vector<std::uint32_t> a, b, shared;
          std::size_t next = 0;
          for (std::size_t k = 0; k < both; ++k) shared.push_back(spread(next++));
          a = b = shared;
          for (std::size_t k = both; k < size_a; ++k) a.push_back(spread(next++));
          for (std::size_t k = both; k < size_b; ++k) b.push_back(spread(next++));
          shared.push_back(spread(next));  // keeps it distinct from A and B
          for (auto* set : {&a, &b, &shared}) std::sort(set->begin(), set->end());
          if (a == b) continue;  // the collapse tier, tested elsewhere
          join_matches_brute_force(
              {a, b, shared}, "|A| " + std::to_string(size_a) + " |B| " +
                                  std::to_string(size_b) + " T " +
                                  std::to_string(both) + " m " +
                                  std::to_string(m));
          if (both <= 2 * (size_a + size_b - 2 * both)) continue;  // no edge
          const std::size_t probing = std::max(size_a, size_b);
          const std::size_t indexed = std::min(size_a, size_b);
          at_probe_end += both == (2 * probing) / 3 + 1;
          at_index_end += both == (4 * indexed) / 5 + 1;
        }
      }
    }
    EXPECT_GT(at_probe_end, 10u) << "m " << m;
    EXPECT_GT(at_index_end, 10u) << "m " << m;
  }
}

// Long schedules: distinct sets of 40-90 tasks over 200, half of them
// near-clones (one to four tasks swapped) of the others.  Such pairs share
// many prefix tasks, so each is met through many pair lists, and the
// one-word rows are nearly full, so the verify kernel passes most entries
// to the exact check.  The edge list must equal brute force, each pair
// once.
TEST(SetJoin, LongSetsMatchBruteForce) {
  constexpr std::uint32_t kTasks = 200;
  std::mt19937_64 rng(2024);
  std::uniform_int_distribution<std::uint32_t> task(0, kTasks - 1);
  std::uniform_int_distribution<std::size_t> size(40, 90);
  std::uniform_int_distribution<int> swaps(1, 4);
  std::set<std::vector<std::uint32_t>> unique;
  std::vector<std::vector<std::uint32_t>> sets;
  while (sets.size() < 120) {
    std::set<std::uint32_t> chosen;
    if (sets.size() % 2 == 1) {
      chosen.insert(sets.back().begin(), sets.back().end());
      for (int k = swaps(rng); k > 0; --k) {
        chosen.erase(std::next(chosen.begin(), rng() % chosen.size()));
        chosen.insert(task(rng));
      }
    } else {
      const std::size_t s = size(rng);
      while (chosen.size() < s) chosen.insert(task(rng));
    }
    std::vector<std::uint32_t> set(chosen.begin(), chosen.end());
    if (unique.insert(set).second) sets.push_back(std::move(set));
  }
  EXPECT_TRUE(join_matches_brute_force(sets, "long sets"));
}

// --- Incremental components ------------------------------------------------

TEST(IncrementalComponents, MatchesFullRebuildUnderChurn) {
  std::mt19937_64 rng(4242);
  const std::size_t n = 64;
  graph::IncrementalComponents inc;
  inc.resize(n);
  // Reference adjacency as sets; set_neighbors must track it exactly.
  std::vector<std::set<std::uint32_t>> ref(n);
  std::uniform_int_distribution<std::size_t> node(0, n - 1);
  std::uniform_int_distribution<int> degree(0, 6);
  for (int round = 0; round < 400; ++round) {
    const std::size_t u = node(rng);
    // New neighbor set for u: some survivors, some fresh nodes.
    std::set<std::uint32_t> next;
    for (std::uint32_t v : ref[u]) {
      if (rng() % 2 == 0) next.insert(v);
    }
    const int fresh = degree(rng);
    for (int k = 0; k < fresh; ++k) {
      const std::size_t v = node(rng);
      if (v != u) next.insert(static_cast<std::uint32_t>(v));
    }
    // Mirror the row replacement in the reference model.
    for (std::uint32_t v : ref[u]) ref[v].erase(static_cast<std::uint32_t>(u));
    ref[u] = next;
    for (std::uint32_t v : next) ref[v].insert(static_cast<std::uint32_t>(u));
    inc.set_neighbors(u,
                      std::vector<std::uint32_t>(next.begin(), next.end()));
    if (round % 7 == 0) {
      graph::UnionFind full(n);
      for (std::size_t a = 0; a < n; ++a) {
        for (std::uint32_t b : ref[a]) {
          if (b > a) full.unite(a, b);
        }
      }
      EXPECT_EQ(inc.labels(), full.labels()) << "round " << round;
    }
  }
  // The churn must have exercised both the cheap and the rebuild paths.
  EXPECT_GT(inc.rebuilds(), 0u);
  EXPECT_GT(inc.incremental_reuses(), 0u);
}

TEST(IncrementalComponents, GrowKeepsExistingMerges) {
  graph::IncrementalComponents inc;
  inc.resize(3);
  inc.set_neighbors(0, {1});
  inc.resize(5);
  const auto labels = inc.labels();
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_NE(labels[0], labels[2]);
  EXPECT_NE(labels[3], labels[4]);
  EXPECT_EQ(inc.component_count(), 4u);
}

TEST(UnionFind, GrowAddsIsolatedElements) {
  graph::UnionFind uf(2);
  uf.unite(0, 1);
  uf.grow(4);
  EXPECT_EQ(uf.set_count(), 3u);
  EXPECT_TRUE(uf.connected(0, 1));
  EXPECT_FALSE(uf.connected(0, 2));
  EXPECT_THROW(uf.grow(1), std::invalid_argument);
}

// --- Pipeline lazy regroup -------------------------------------------------

TEST(PipelineIncrementalRegroup, MatchesFullRegroupUnderChurnAndDecay) {
  pipeline::ShardOptions options;
  options.decay = 0.9;  // force evictions → edge removals
  options.influence_floor = 1e-2;

  const std::size_t kTasks = 12;
  pipeline::SnapshotCell cell;
  pipeline::ShardCounters counters;
  pipeline::CampaignState state(0, kTasks, &options, &cell, &counters);

  std::mt19937_64 rng(77);
  std::uniform_int_distribution<std::size_t> account(0, 39);
  std::uniform_int_distribution<std::size_t> task(0, kTasks - 1);
  std::normal_distribution<double> value(-60.0, 3.0);
  for (int step = 0; step < 600; ++step) {
    pipeline::Report report;
    report.campaign = 0;
    report.account = account(rng);
    report.task = task(rng);
    report.value = value(rng);
    report.timestamp_hours = step * 0.01;
    state.apply(report);
    if (step % 20 == 19) state.evict_stale();
    if (step % 5 == 4) {
      // The full regroup: the dense Eq. (6) partition of the live view.
      EXPECT_EQ(state.grouping().labels(),
                oracle::agts_dense_labels(state.as_framework_input(),
                                          options.rho))
          << "step " << step;
    }
  }
}

// --- Task-set index and the streaming regroup ------------------------------

// Task counts covering a partial word, one exact word, and the multi-word
// bitset rows (with and without a partial last word).
constexpr std::size_t kIndexTaskCounts[] = {12, 64, 70, 130};
constexpr double kIndexRhos[] = {-0.5, 0.0, 0.3, 1.0};

TEST(TaskSetIndex, NeighborsMatchBruteForceUnderChurn) {
  for (const std::size_t m : kIndexTaskCounts) {
    const std::size_t kAccounts = 48;
    candidate::TaskSetIndex index(m);
    index.resize(kAccounts);
    std::vector<std::set<std::uint32_t>> model(kAccounts);
    std::mt19937_64 rng(1000 + m);
    std::uniform_int_distribution<std::size_t> account(0, kAccounts - 1);
    // Sybil-like accounts (multiples of 4) toggle within one shared band of
    // 16 tasks, the rest within bands of their own.  Present memberships
    // are erased only one time in 16, so sets stay nearly full and the
    // shared band yields edges even at rho = 1 with m = 130.
    std::uniform_int_distribution<std::size_t> offset(0, 15);
    std::size_t edges[std::size(kIndexRhos)] = {};
    for (int step = 0; step < 4000; ++step) {
      const std::size_t a = account(rng);
      const std::size_t base = a % 4 == 0 ? 0 : a;
      const std::size_t t = (base * 5 + offset(rng)) % m;
      if (model[a].count(static_cast<std::uint32_t>(t)) != 0) {
        if (rng() % 16 != 0) continue;
        index.erase(a, t);
        model[a].erase(static_cast<std::uint32_t>(t));
      } else {
        index.insert(a, t);
        model[a].insert(static_cast<std::uint32_t>(t));
      }
      if (step % 250 != 249) continue;
      for (std::size_t i = 0; i < kAccounts; ++i) {
        ASSERT_EQ(index.size(i), model[i].size());
        for (std::size_t task = 0; task < m; ++task) {
          ASSERT_EQ(index.contains(i, task),
                    model[i].count(static_cast<std::uint32_t>(task)) != 0);
        }
      }
      for (std::size_t r = 0; r < std::size(kIndexRhos); ++r) {
        const double rho = kIndexRhos[r];
        std::vector<std::uint32_t> got;
        for (std::size_t i = 0; i < kAccounts; ++i) {
          std::vector<std::uint32_t> want;
          for (std::size_t j = 0; j < kAccounts; ++j) {
            if (j == i) continue;
            std::size_t both = 0;
            for (std::uint32_t task : model[i]) both += model[j].count(task);
            const std::size_t alone =
                model[i].size() + model[j].size() - 2 * both;
            ASSERT_EQ(index.both(i, j), both);
            ASSERT_EQ(index.alone(i, j), alone);
            if (core::AgTs::affinity(both, alone, m) > rho) {
              want.push_back(static_cast<std::uint32_t>(j));
            }
          }
          index.neighbors(i, rho, got);
          ASSERT_EQ(got, want)
              << "m " << m << " rho " << rho << " account " << i;
          edges[r] += got.size();
        }
      }
    }
    // Every threshold must have been exercised with real edges.
    for (std::size_t r = 0; r < std::size(kIndexRhos); ++r) {
      EXPECT_GT(edges[r], 0u) << "m " << m << " rho " << kIndexRhos[r];
    }
  }
}

TEST(TaskSetIndex, ReinsertedMembershipIsReportedOnce) {
  candidate::TaskSetIndex index(64);
  index.resize(3);
  for (std::size_t t = 0; t < 10; ++t) {
    index.insert(0, t);
    index.insert(1, t);
  }
  // Each cycle takes task 0 out of account 1's prefix and puts it back;
  // account 1 must sit on each of its prefix lists exactly once.
  for (int cycle = 0; cycle < 100; ++cycle) {
    index.erase(1, 0);
    index.insert(1, 0);
    std::vector<std::uint32_t> out;
    index.neighbors(0, 0.0, out);
    ASSERT_EQ(out, std::vector<std::uint32_t>({1})) << "cycle " << cycle;
  }
  index.erase(1, 0);
  std::vector<std::uint32_t> out;
  index.neighbors(1, 0.0, out);  // T = 9, L = 1
  EXPECT_EQ(out, std::vector<std::uint32_t>({0}));
  // Account 2 is empty: A(2, b) = -2|T_b|^2 / m, below -1 for 0 and 1.
  index.neighbors(2, -1.0, out);
  EXPECT_TRUE(out.empty());
}

// Eq. (6) neighbours by brute force over the index's own rows.
std::vector<std::uint32_t> brute_neighbors(const candidate::TaskSetIndex& index,
                                           std::size_t accounts, std::size_t m,
                                           std::size_t a, double rho) {
  std::vector<std::uint32_t> want;
  for (std::size_t b = 0; b < accounts; ++b) {
    if (b != a && core::AgTs::affinity(index.both(a, b), index.alone(a, b),
                                       m) > rho) {
      want.push_back(static_cast<std::uint32_t>(b));
    }
  }
  return want;
}

// Sum over accounts of the probe-prefix length |T_a| - floor(2|T_a|/3).
std::size_t prefix_total(const candidate::TaskSetIndex& index,
                         std::size_t accounts) {
  std::size_t total = 0;
  for (std::size_t a = 0; a < accounts; ++a) {
    total += index.size(a) - (2 * index.size(a)) / 3;
  }
  return total;
}

// The prefix lemma at its boundary.  Account 0 does p - 1 tasks of its own,
// then the shared tasks, so their first sits exactly at the last position
// of its prefix (p = |T| - floor(2|T|/3)); account 1 either does only the
// shared tasks (one side tight: always an edge, T - 2L between 1 and 3) or
// mirrors account 0 with tasks of its own (both sides tight: an edge only
// while T > 2L still holds).  The tasks straddle a bitset word boundary and
// are inserted in ascending, descending and interleaved order.
TEST(TaskSetIndex, FirstSharedTaskAtLastPrefixPosition) {
  constexpr std::size_t kTasks = 130;
  for (std::size_t size = 1; size <= 15; ++size) {
    const std::size_t prefix = size - (2 * size) / 3;
    for (const bool both_tight : {false, true}) {
      for (int order = 0; order < 3; ++order) {
        // Account 0's own tasks from 50, account 1's from 60, shared from 70.
        std::vector<std::pair<std::size_t, std::size_t>> members;
        for (std::size_t i = 0; i + 1 < prefix; ++i) {
          members.push_back({0, 50 + i});
          if (both_tight) members.push_back({1, 60 + i});
        }
        for (std::size_t i = 0; i + prefix <= size; ++i) {
          members.push_back({0, 70 + i});
          members.push_back({1, 70 + i});
        }
        if (order == 1) std::reverse(members.begin(), members.end());
        if (order == 2) {
          std::stable_partition(members.begin(), members.end(),
                                [](const auto& m) { return m.second >= 70; });
        }
        candidate::TaskSetIndex index(kTasks);
        index.resize(2);
        for (const auto& [account, task] : members) index.insert(account, task);
        ASSERT_EQ(index.size(0), size);
        ASSERT_EQ(index.posting_entries(), prefix_total(index, 2));
        const std::size_t shared = size - prefix + 1;
        const std::size_t alone = both_tight ? 2 * (prefix - 1) : prefix - 1;
        ASSERT_EQ(index.both(0, 1), shared);
        ASSERT_EQ(index.alone(0, 1), alone);
        if (!both_tight) {
          ASSERT_GT(shared, 2 * alone);
        }
        for (const double rho : {0.0, 0.5}) {
          std::vector<std::uint32_t> got;
          for (std::size_t a = 0; a < 2; ++a) {
            index.neighbors(a, rho, got);
            EXPECT_EQ(got, brute_neighbors(index, 2, kTasks, a, rho))
                << "size " << size << " both " << both_tight << " order "
                << order << " rho " << rho << " account " << a;
          }
          if (!both_tight && rho == 0.0) {
            EXPECT_EQ(got, std::vector<std::uint32_t>({0})) << "size " << size;
          }
        }
      }
    }
  }
}

// The lists are a function of the task sets: an index built in one pass
// and one that reached the same sets through churn (extra memberships
// inserted and erased, the rest inserted in shuffled order, some erased
// and re-inserted) hold the same number of entries, sum_a p(|T_a|), at
// every step, and report the same neighbours.
TEST(TaskSetIndex, PostingsDependOnlyOnTheSets) {
  for (const std::size_t m : kIndexTaskCounts) {
    const std::size_t kAccounts = 40;
    std::mt19937_64 rng(2000 + m);
    std::vector<std::pair<std::size_t, std::size_t>> members;
    for (std::size_t a = 0; a < kAccounts; ++a) {
      // Accounts in fives share a base schedule, then drop a task or two.
      const std::size_t base = (a / 5) * 7;
      for (std::size_t i = 0; i < 4 + (a / 5) % 9; ++i) {
        if (a % 5 != 0 && rng() % 6 == 0) continue;
        members.push_back({a, (base + 3 * i) % m});
      }
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());

    candidate::TaskSetIndex straight(m);
    straight.resize(kAccounts);
    for (const auto& [a, t] : members) straight.insert(a, t);

    candidate::TaskSetIndex churned(m);
    churned.resize(kAccounts);
    std::vector<std::pair<std::size_t, std::size_t>> order = members;
    std::shuffle(order.begin(), order.end(), rng);
    std::uniform_int_distribution<std::size_t> task(0, m - 1);
    std::vector<std::pair<std::size_t, std::size_t>> extra;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto [a, t] = order[i];
      // A membership outside the final sets, erased again later.
      const std::size_t e = task(rng);
      if (!churned.contains(a, e) &&
          !std::binary_search(members.begin(), members.end(),
                              std::pair<std::size_t, std::size_t>{a, e})) {
        churned.insert(a, e);
        extra.push_back({a, e});
      }
      if (!churned.contains(a, t)) churned.insert(a, t);
      if (i % 3 == 0) {
        churned.erase(a, t);
        churned.insert(a, t);
      }
      ASSERT_EQ(churned.posting_entries(), prefix_total(churned, kAccounts));
    }
    std::shuffle(extra.begin(), extra.end(), rng);
    for (const auto& [a, e] : extra) {
      churned.erase(a, e);
      ASSERT_EQ(churned.posting_entries(), prefix_total(churned, kAccounts));
    }

    EXPECT_EQ(churned.posting_entries(), straight.posting_entries());
    EXPECT_EQ(straight.posting_entries(), prefix_total(straight, kAccounts));
    for (const double rho : kIndexRhos) {
      std::vector<std::uint32_t> want;
      std::vector<std::uint32_t> got;
      for (std::size_t a = 0; a < kAccounts; ++a) {
        ASSERT_EQ(churned.size(a), straight.size(a));
        straight.neighbors(a, rho, want);
        churned.neighbors(a, rho, got);
        EXPECT_EQ(got, want) << "m " << m << " rho " << rho << " account " << a;
        EXPECT_EQ(got, brute_neighbors(straight, kAccounts, m, a, rho));
      }
    }
  }
}

TEST(TaskSetIndex, ValidatesArguments) {
  EXPECT_THROW(candidate::TaskSetIndex(0), std::invalid_argument);
  candidate::TaskSetIndex index(8);
  index.resize(3);
  EXPECT_THROW(index.resize(2), std::invalid_argument);
  index.insert(1, 7);
  EXPECT_THROW(index.insert(1, 7), std::logic_error);
  EXPECT_THROW(index.erase(2, 7), std::logic_error);
}

// The shard's streaming regroup against batch AG-TS and the dense Eq. (6)
// oracle on the live view, and its FIFO eviction against a brute-force scan
// of every live slot, under churn with upserts.
TEST(PipelineIncrementalRegroup, MatchesBatchAgTsAndEvictionOracle) {
  for (const std::size_t m : kIndexTaskCounts) {
    for (const double rho : kIndexRhos) {
      pipeline::ShardOptions options;
      options.rho = rho;
      options.decay = 0.99;
      options.influence_floor = 1e-2;  // a horizon of 458 arrivals
      pipeline::SnapshotCell cell;
      pipeline::ShardCounters counters;
      pipeline::CampaignState state(0, m, &options, &cell, &counters);
      core::AgTsOptions batch_options;
      batch_options.rho = rho;
      const core::AgTs batch(batch_options);

      // Oracle: (account, task) -> arrival step of the live copy, and the
      // step the copy first arrived (an upsert moves only the former).
      std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> born;
      std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> first;
      std::size_t kept_by_upsert = 0;
      std::size_t merged = 0;  // checks where some group has two accounts
      std::uint64_t step = 0;
      std::mt19937_64 rng(31 * m + static_cast<std::uint64_t>(rho * 8 + 8));
      std::uniform_int_distribution<std::size_t> account(0, 11);
      std::uniform_int_distribution<std::size_t> offset(0, 11);
      for (int i = 0; i < 1200; ++i) {
        pipeline::Report report;
        report.campaign = 0;
        report.account = account(rng);
        // Sybil-like accounts (multiples of 4) share one band of 12
        // tasks, so groups form at every threshold; few accounts over
        // narrow bands keep the upsert rate high.
        const std::size_t base =
            report.account % 4 == 0 ? 0 : report.account;
        report.task = (base * 5 + offset(rng)) % m;
        report.value = static_cast<double>(i);
        state.apply(report);
        ++step;
        const auto key = std::make_pair(report.account, report.task);
        if (born.count(key) == 0) first[key] = step;
        born[key] = step;

        if (i % 9 != 8) continue;
        state.evict_stale();
        const auto decayed = [&](std::uint64_t at) {
          return std::pow(options.decay, static_cast<double>(step - at)) <
                 options.influence_floor;
        };
        for (auto it = born.begin(); it != born.end();) {
          if (decayed(it->second)) {
            first.erase(it->first);
            it = born.erase(it);
          } else {
            if (decayed(first[it->first])) ++kept_by_upsert;
            ++it;
          }
        }
        const core::FrameworkInput view = state.as_framework_input();
        std::map<std::pair<std::size_t, std::size_t>, double> live;
        for (std::size_t a = 0; a < view.accounts.size(); ++a) {
          for (const auto& r : view.accounts[a].reports) {
            live[{a, r.task}] = r.value;
          }
        }
        ASSERT_EQ(live.size(), born.size()) << "step " << step;
        ASSERT_EQ(state.live_observations(), born.size());
        for (const auto& [key, at] : born) {
          ASSERT_EQ(live.count(key), 1u)
              << "account " << key.first << " task " << key.second;
          // Values are the arrival index, so this pins last-write-wins.
          EXPECT_EQ(live[key], static_cast<double>(at - 1));
        }
        const std::vector<std::size_t> labels = state.grouping().labels();
        ASSERT_EQ(labels, batch.group(view).labels())
            << "m " << m << " rho " << rho << " step " << step;
        ASSERT_EQ(labels, oracle::agts_dense_labels(view, rho))
            << "m " << m << " rho " << rho << " step " << step;
        if (state.grouping().group_count() < view.accounts.size()) ++merged;
      }
      EXPECT_GT(kept_by_upsert, 0u) << "m " << m << " rho " << rho;
      EXPECT_GT(merged, 0u) << "m " << m << " rho " << rho;
    }
  }
}

// Accounts below the largest reported id exist with empty task sets; at
// rho < 0 two empty sets (affinity 0) share an edge, so they must enter the
// regroup even though no report ever named them.
TEST(PipelineIncrementalRegroup, UnreportedAccountsJoinAtNegativeRho) {
  pipeline::ShardOptions options;
  options.rho = -0.5;
  pipeline::SnapshotCell cell;
  pipeline::ShardCounters counters;
  pipeline::CampaignState state(0, 12, &options, &cell, &counters);
  for (std::size_t task = 0; task < 4; ++task) {
    state.apply({0, 3, task, -60.0, 0.0});
  }
  // A(empty, account 3) = -2 * 4^2 / 12 < -0.5: account 3 stays alone.
  EXPECT_EQ(state.grouping().labels(),
            std::vector<std::size_t>({0, 0, 0, 1}));
}

}  // namespace
}  // namespace sybiltd
