// Tests for src/core: grouping containers, the three AG methods (including
// the paper's Fig. 3 / Fig. 4 worked examples), data grouping (Eqs. 3–4),
// and the full framework (Algorithm 2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>

#include "alloc_probe.h"
#include "common/rng.h"
#include "core/ag_fp.h"
#include "core/ag_tr.h"
#include "core/ag_ts.h"
#include "core/data_grouping.h"
#include "core/framework.h"
#include "eval/adapters.h"
#include "eval/paper_example.h"
#include "grouping_oracles.h"
#include "mcs/scenario.h"

namespace sybiltd::core {
namespace {

// Minimal input builder for grouping tests without fingerprints.
FrameworkInput make_input(
    std::size_t task_count,
    const std::vector<std::vector<AccountObservation>>& reports) {
  FrameworkInput input;
  input.task_count = task_count;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    AccountTrace trace;
    trace.name = "acct" + std::to_string(i);
    trace.reports = reports[i];
    input.accounts.push_back(std::move(trace));
  }
  return input;
}

TEST(AccountGrouping, ValidatesPartition) {
  EXPECT_NO_THROW(AccountGrouping({{0, 1}, {2}}, 3));
  // Account in two groups.
  EXPECT_THROW(AccountGrouping({{0, 1}, {1, 2}}, 3), std::invalid_argument);
  // Missing account.
  EXPECT_THROW(AccountGrouping({{0}, {2}}, 3), std::invalid_argument);
  // Out of range.
  EXPECT_THROW(AccountGrouping({{0, 3}}, 3), std::invalid_argument);
  // Empty group.
  EXPECT_THROW(AccountGrouping({{0, 1, 2}, {}}, 3), std::invalid_argument);
}

TEST(AccountGrouping, SingletonsAndLabels) {
  const auto g = AccountGrouping::singletons(3);
  EXPECT_EQ(g.group_count(), 3u);
  EXPECT_EQ(g.group_of(2), 2u);
  const auto labels = g.labels();
  EXPECT_EQ(labels, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(AccountGrouping, FromLabelsRoundTrip) {
  const std::vector<std::size_t> labels{2, 0, 2, 1};
  const auto g = AccountGrouping::from_labels(labels);
  EXPECT_EQ(g.group_count(), 3u);
  EXPECT_EQ(g.group_of(0), g.group_of(2));
  EXPECT_NE(g.group_of(0), g.group_of(1));
}

TEST(AccountGrouping, FromLabelsSkipsGaps) {
  // Labels 0 and 5 with nothing in between must not create empty groups.
  const std::vector<std::size_t> labels{5, 0, 5};
  const auto g = AccountGrouping::from_labels(labels);
  EXPECT_EQ(g.group_count(), 2u);
}

TEST(AccountGrouping, BuildAndCopyAllocateAConstantNumberOfTimes) {
  // 20,000 accounts in 10 groups and in 10,000 groups: a build is a
  // counting sort over flat arrays and a copy is three flat copies, so
  // neither depends on the group count.
  constexpr std::size_t kAccounts = 20000;
  std::vector<std::uint64_t> build_allocs;
  for (std::size_t groups : {10u, 10000u}) {
    std::vector<std::size_t> labels(kAccounts);
    for (std::size_t i = 0; i < kAccounts; ++i) {
      labels[i] = (i * 7919) % groups;
    }
    AccountGrouping grouping;
    build_allocs.push_back(count_allocations(
        [&] { grouping = AccountGrouping::from_labels(labels); }));
    ASSERT_EQ(grouping.group_count(), groups);
    AccountGrouping copy;
    EXPECT_EQ(count_allocations([&] { copy = grouping; }), 3u)
        << groups << " groups";
    EXPECT_EQ(copy.labels(), grouping.labels());
  }
  EXPECT_EQ(build_allocs[0], build_allocs[1]);
  EXPECT_LE(build_allocs[0], 4u);
}

TEST(AccountGrouping, GroupSpansAreAscendingAndCoverEveryAccountOnce) {
  Rng rng(5);
  for (std::size_t label_range : {1u, 7u, 300u, 5000u}) {
    std::vector<std::size_t> labels(2000);
    for (auto& lab : labels) {
      lab = rng.uniform_index(label_range);
    }
    const auto grouping = AccountGrouping::from_labels(labels);
    std::vector<int> seen(labels.size(), 0);
    std::size_t previous_first = 0;
    for (std::size_t k = 0; k < grouping.group_count(); ++k) {
      const auto members = grouping.group(k);
      ASSERT_FALSE(members.empty());
      EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
      EXPECT_EQ(std::adjacent_find(members.begin(), members.end()),
                members.end());
      for (std::size_t account : members) {
        EXPECT_EQ(grouping.group_of(account), k);
        EXPECT_EQ(labels[account], labels[members[0]]);
        ++seen[account];
      }
      // Groups follow ascending label order.
      if (k > 0) {
        EXPECT_LT(labels[previous_first], labels[members[0]]);
      }
      previous_first = members[0];
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](int n) { return n == 1; }));
  }
  EXPECT_THROW(AccountGrouping::singletons(3).group(3), std::invalid_argument);
}

TEST(AccountGrouping, GroupsConstructorKeepsGroupOrder) {
  // The given group order is the group index; members come out ascending.
  const AccountGrouping g({{3, 1}, {0}, {4, 2}}, 5);
  EXPECT_EQ(g.labels(), (std::vector<std::size_t>{1, 0, 2, 0, 2}));
  EXPECT_EQ(std::vector<std::size_t>(g.group(0).begin(), g.group(0).end()),
            (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(std::vector<std::size_t>(g.group(2).begin(), g.group(2).end()),
            (std::vector<std::size_t>{2, 4}));
}

TEST(AgFp, FingerprintlessSingletonsComeLast) {
  // AG-FP lists its clusters first and appends one singleton per account
  // without a fingerprint, in account order.  Renumbering groups by their
  // smallest member would put account 1's singleton second.
  FrameworkInput input;
  input.task_count = 1;
  for (const double fp : {0.0, -1.0, 0.01, -1.0, 50.0, 50.01}) {
    AccountTrace trace;
    if (fp >= 0.0) trace.fingerprint = {fp, fp};
    input.accounts.push_back(std::move(trace));
  }
  AgFpOptions opt;
  opt.fixed_k = 2;
  const auto grouping = AgFp(opt).group(input);
  ASSERT_EQ(grouping.group_count(), 4u);
  EXPECT_EQ(grouping.group_of(0), grouping.group_of(2));
  EXPECT_EQ(grouping.group_of(4), grouping.group_of(5));
  EXPECT_LT(grouping.group_of(0), 2u);
  EXPECT_LT(grouping.group_of(4), 2u);
  EXPECT_EQ(grouping.group_of(1), 2u);
  EXPECT_EQ(grouping.group_of(3), 3u);
}

// --- AG-TS ----------------------------------------------------------------

TEST(AgTs, AffinityFormulaEq6) {
  // A = (T - 2L)(T + L)/m
  EXPECT_NEAR(AgTs::affinity(3, 0, 4), 2.25, 1e-12);
  EXPECT_NEAR(AgTs::affinity(3, 1, 4), 1.0, 1e-12);
  EXPECT_NEAR(AgTs::affinity(1, 3, 4), -5.0, 1e-12);
  EXPECT_THROW(AgTs::affinity(1, 1, 0), std::invalid_argument);
}

TEST(AgTs, PaperExampleAffinityMatrix) {
  // Task sets from Table I/III: 1={1,2,3,4}, 2={2,3}, 3={1,2,4},
  // 4'=4''=4'''={1,3,4}.
  const auto input = eval::paper_example_input();
  const auto a = AgTs::affinity_matrix(input);
  // Sybil pairs share all 3 tasks, none alone: (3)(3)/4 = 2.25.
  EXPECT_NEAR(a[3][4], 2.25, 1e-12);
  EXPECT_NEAR(a[3][5], 2.25, 1e-12);
  EXPECT_NEAR(a[4][5], 2.25, 1e-12);
  // Account 1 vs a Sybil account: T=3, L=1 -> 1.0.  (Same value as 1 vs 3 —
  // see the header note on the paper's example inconsistency.)
  EXPECT_NEAR(a[0][3], 1.0, 1e-12);
  EXPECT_NEAR(a[0][2], 1.0, 1e-12);
  // Account 2 vs Sybil: T=1 ({T3}), L=3 ({T2; T1, T4}) -> (1-6)(4)/4 = -5.
  EXPECT_NEAR(a[1][3], -5.0, 1e-12);
  // Symmetry and zero diagonal.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i][i], 0.0);
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[i][j], a[j][i]);
    }
  }
}

TEST(AgTs, PaperExampleGroupsSybilAccounts) {
  const auto input = eval::paper_example_input();
  const auto grouping = AgTs().group(input);
  // With Eq. (6) verbatim and the strict A > 1 rule, the Sybil accounts
  // form one group and every legitimate account is a singleton.
  EXPECT_EQ(grouping.group_of(3), grouping.group_of(4));
  EXPECT_EQ(grouping.group_of(4), grouping.group_of(5));
  EXPECT_NE(grouping.group_of(0), grouping.group_of(3));
  EXPECT_NE(grouping.group_of(1), grouping.group_of(3));
  EXPECT_NE(grouping.group_of(2), grouping.group_of(3));
  EXPECT_EQ(grouping.group_count(), 4u);
}

TEST(AgTs, LowerThresholdMergesAccountOne) {
  // Dropping rho below 1 admits the A = 1.0 edges, reproducing the paper's
  // narrative (account 1 joins the Sybil component) — at the cost of
  // pulling account 3 in too, which is exactly the documented
  // inconsistency in the paper's worked example.
  AgTsOptions opt;
  opt.rho = 0.99;
  const auto grouping = AgTs(opt).group(eval::paper_example_input());
  EXPECT_EQ(grouping.group_of(0), grouping.group_of(3));
  EXPECT_EQ(grouping.group_of(0), grouping.group_of(2));
}

TEST(AgTs, DisjointTaskSetsStaySeparate) {
  const auto input = make_input(
      4, {{{0, 1.0, 0.0}, {1, 1.0, 0.1}}, {{2, 1.0, 0.0}, {3, 1.0, 0.1}}});
  const auto grouping = AgTs().group(input);
  EXPECT_EQ(grouping.group_count(), 2u);
}

TEST(AgTs, EmptyInput) {
  FrameworkInput input;
  input.task_count = 0;
  EXPECT_EQ(AgTs().group(input).group_count(), 0u);
}

// --- AG-TR ----------------------------------------------------------------

TEST(AgTr, SeriesExtraction) {
  AccountTrace trace;
  trace.reports = {{2, -50.0, 10.1}, {0, -60.0, 10.3}, {3, -70.0, 10.5}};
  EXPECT_EQ(AgTr::task_series(trace), (std::vector<double>{3, 1, 4}));
  EXPECT_EQ(AgTr::timestamp_series(trace),
            (std::vector<double>{10.1, 10.3, 10.5}));
}

TEST(AgTr, PaperExampleDissimilarityMatrices) {
  const auto input = eval::paper_example_input();
  const AgTr agtr;
  const auto m = agtr.dissimilarity_matrices(input);
  // Fig. 4(a): task-series total DTW costs.
  EXPECT_NEAR(m.task_dtw[0][1], 2.0, 1e-12);  // X1 vs X2
  EXPECT_NEAR(m.task_dtw[0][2], 1.0, 1e-12);  // X1 vs X3
  EXPECT_NEAR(m.task_dtw[0][3], 1.0, 1e-12);  // X1 vs X4'
  EXPECT_NEAR(m.task_dtw[3][4], 0.0, 1e-12);  // identical Sybil series
  EXPECT_NEAR(m.task_dtw[1][3], 2.0, 1e-12);
  // Fig. 4(b): timestamp DTW costs are tiny for Sybil pairs (minutes apart
  // in hour units) and of order 0.01–0.06 overall.
  EXPECT_LT(m.time_dtw[3][4], 0.01);
  EXPECT_LT(m.time_dtw[3][5], 0.01);
  EXPECT_GT(m.time_dtw[0][1], 0.0);
  // Fig. 4(c): D = task + time; D(1,4') ~ 1.01.
  EXPECT_NEAR(m.dissimilarity[0][3], 1.01, 0.02);
  // Symmetry.
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(m.dissimilarity[i][j], m.dissimilarity[j][i]);
    }
  }
}

TEST(AgTr, PaperExampleGroupsOnlySybilAccounts) {
  // Fig. 4(d): with phi = 1, the only component is {4', 4'', 4'''}.
  const auto grouping = AgTr().group(eval::paper_example_input());
  EXPECT_EQ(grouping.group_count(), 4u);
  EXPECT_EQ(grouping.group_of(3), grouping.group_of(4));
  EXPECT_EQ(grouping.group_of(4), grouping.group_of(5));
  std::set<std::size_t> legit{grouping.group_of(0), grouping.group_of(1),
                              grouping.group_of(2)};
  EXPECT_EQ(legit.size(), 3u);
  EXPECT_FALSE(legit.count(grouping.group_of(3)));
}

TEST(AgTr, PathNormalizedModeStillIsolatesSybilGroup) {
  // Eq. (7) rescales distances (sqrt(cost / K) — smaller for costs > 1,
  // larger for tiny costs), but identical Sybil trajectories still have
  // near-zero dissimilarity, so the grouping outcome is unchanged.
  AgTrOptions normalized;
  normalized.mode = DtwMode::kPathNormalized;
  // Eq. (7) compresses the task-series separation (sqrt(1/K) < 1), so the
  // threshold must shrink with it; phi is mode-dependent.
  normalized.phi = 0.3;
  const auto input = eval::paper_example_input();
  const auto mn = AgTr(normalized).dissimilarity_matrices(input);
  const auto mt = AgTr().dissimilarity_matrices(input);
  // Zero-cost pairs stay zero in both modes; nonzero pairs differ.
  EXPECT_LT(mn.task_dtw[3][4], 1e-9);
  EXPECT_NE(mn.dissimilarity[0][1], mt.dissimilarity[0][1]);
  const auto grouping = AgTr(normalized).group(input);
  EXPECT_EQ(grouping.group_of(3), grouping.group_of(4));
  EXPECT_EQ(grouping.group_of(4), grouping.group_of(5));
  EXPECT_NE(grouping.group_of(0), grouping.group_of(3));
}

// Blocking sizes its grid by sqrt(phi), so an infinite phi would silently
// emit no pairs (60 singletons here, where every pair is an edge); a
// non-finite threshold is rejected instead.
TEST(AgTr, RejectsNonFinitePhi) {
  const auto input = eval::to_framework_input(mcs::generate_scenario(
      mcs::make_large_scenario(40, 4, 5, 20, 1)));
  for (const double phi : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    AgTrOptions options;
    options.phi = phi;
    EXPECT_THROW(AgTr(options).group(input), std::invalid_argument);
    options.mode = DtwMode::kPathNormalized;
    EXPECT_THROW(AgTr(options).group(input), std::invalid_argument);
  }
}

// A report task beyond task_count is rejected as AG-TS rejects it, not
// read as task index 10 and grouped.
TEST(AgTr, RejectsOutOfRangeTaskIds) {
  const auto input = make_input(4, {{{9, 1.0, 0.0}, {1, 1.0, 0.1}},
                                    {{9, 1.0, 0.0}, {1, 1.0, 0.1}}});
  EXPECT_THROW(AgTs().group(input), std::invalid_argument);
  EXPECT_THROW(AgTr().group(input), std::invalid_argument);
  EXPECT_THROW(AgTr::series_table(input), std::invalid_argument);
  AgTrOptions options;
  options.mode = DtwMode::kPathNormalized;
  EXPECT_THROW(AgTr(options).group(input), std::invalid_argument);
}

TEST(AgTr, AccountWithoutReportsBecomesSingleton) {
  auto input = make_input(2, {{{0, 1.0, 0.0}, {1, 1.0, 0.1}},
                              {{0, 1.0, 0.0}, {1, 1.0, 0.1}},
                              {}});
  const auto grouping = AgTr().group(input);
  // Accounts 0 and 1 are identical; account 2 has no trajectory.
  EXPECT_EQ(grouping.group_of(0), grouping.group_of(1));
  EXPECT_NE(grouping.group_of(2), grouping.group_of(0));
}

// --- AG-FP ----------------------------------------------------------------

TEST(AgFp, GroupsIdenticalFingerprints) {
  FrameworkInput input;
  input.task_count = 1;
  for (int i = 0; i < 6; ++i) {
    AccountTrace trace;
    trace.name = "a" + std::to_string(i);
    // Two tight fingerprint clusters.
    const double base = i < 3 ? 0.0 : 100.0;
    trace.fingerprint = {base + 0.001 * i, base - 0.001 * i, base};
    input.accounts.push_back(std::move(trace));
  }
  const auto grouping = AgFp().group(input);
  EXPECT_EQ(grouping.group_of(0), grouping.group_of(1));
  EXPECT_EQ(grouping.group_of(1), grouping.group_of(2));
  EXPECT_EQ(grouping.group_of(3), grouping.group_of(4));
  EXPECT_NE(grouping.group_of(0), grouping.group_of(3));
}

TEST(AgFp, FixedKOverridesElbow) {
  FrameworkInput input;
  input.task_count = 1;
  for (int i = 0; i < 4; ++i) {
    AccountTrace trace;
    trace.fingerprint = {static_cast<double>(i * 10)};
    input.accounts.push_back(std::move(trace));
  }
  AgFpOptions opt;
  opt.fixed_k = 4;
  const auto grouping = AgFp(opt).group(input);
  EXPECT_EQ(grouping.group_count(), 4u);
}

TEST(AgFp, MissingFingerprintsBecomeSingletons) {
  FrameworkInput input;
  input.task_count = 1;
  for (int i = 0; i < 3; ++i) {
    AccountTrace trace;
    if (i < 2) trace.fingerprint = {1.0, 2.0};
    input.accounts.push_back(std::move(trace));
  }
  const auto grouping = AgFp().group(input);
  EXPECT_EQ(grouping.account_count(), 3u);
  // Account 2 must be alone.
  EXPECT_EQ(grouping.group(grouping.group_of(2)).size(), 1u);
}

TEST(AgFp, RejectsMixedDimensions) {
  FrameworkInput input;
  input.task_count = 1;
  AccountTrace a, b;
  a.fingerprint = {1.0, 2.0};
  b.fingerprint = {1.0};
  input.accounts = {a, b};
  EXPECT_THROW(AgFp().group(input), std::invalid_argument);
}

// --- Data grouping (Eqs. 3 and 4) ------------------------------------------

TEST(DataGrouping, AggregateModes) {
  DataGroupingOptions opt;
  const std::vector<double> duplicates{-50, -50, -50};
  opt.aggregate = GroupAggregate::kInverseDeviation;
  EXPECT_NEAR(aggregate_group_values(duplicates, opt), -50.0, 1e-9);
  const std::vector<double> spread{1, 2, 9};
  opt.aggregate = GroupAggregate::kMean;
  EXPECT_NEAR(aggregate_group_values(spread, opt), 4.0, 1e-12);
  opt.aggregate = GroupAggregate::kMedian;
  EXPECT_NEAR(aggregate_group_values(spread, opt), 2.0, 1e-12);
  EXPECT_THROW(aggregate_group_values({}, opt), std::invalid_argument);
}

TEST(DataGrouping, InverseDeviationLeansTowardDenseMass) {
  DataGroupingOptions opt;
  // Four agreeing values and one outlier: the robust aggregate should sit
  // near the dense mass, closer than the plain mean.
  const std::vector<double> values{-70, -70.5, -69.5, -70.2, -50};
  const double robust = aggregate_group_values(values, opt);
  opt.aggregate = GroupAggregate::kMean;
  const double plain = aggregate_group_values(values, opt);
  EXPECT_LT(std::abs(robust - (-70.0)), std::abs(plain - (-70.0)));
}

TEST(DataGrouping, Eq4WeightsFavorSmallGroups) {
  // 3 accounts: two Sybil (group 0) + one legit (group 1), one task.
  auto input = make_input(1, {{{0, -50.0, 0.0}},
                              {{0, -50.0, 0.1}},
                              {{0, -70.0, 0.2}}});
  const AccountGrouping grouping({{0, 1}, {2}}, 3);
  const GroupedData grouped = group_data(input, grouping);
  ASSERT_EQ(grouped.task_count(), 1u);
  ASSERT_EQ(grouped.task_width(0), 2u);
  // Cells of task 0 in group order: the Sybil pair, then the legit account.
  EXPECT_EQ(grouped.group[0], 0u);
  EXPECT_EQ(grouped.group[1], 1u);
  EXPECT_EQ(grouped.member_count[0], 2u);
  EXPECT_EQ(grouped.member_count[1], 1u);
  EXPECT_NEAR(grouped.value[0], -50.0, 1e-9);
  EXPECT_NEAR(grouped.initial_weight[0], 1.0 - 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(grouped.initial_weight[1], 1.0 - 1.0 / 3.0, 1e-12);
  EXPECT_GT(grouped.initial_weight[1], grouped.initial_weight[0]);
}

TEST(DataGrouping, TasksOfGroupTracksCoverage) {
  auto input = make_input(3, {{{0, 1.0, 0.0}, {2, 1.0, 0.1}},
                              {{1, 2.0, 0.0}}});
  const AccountGrouping grouping({{0}, {1}}, 2);
  const GroupedData grouped = group_data(input, grouping);
  EXPECT_EQ(grouped.task_begin, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(grouped.group, (std::vector<std::uint32_t>{0, 1, 0}));
  EXPECT_EQ(grouped.group_task_count, (std::vector<std::uint32_t>{2, 1}));
}

TEST(DataGrouping, LiteralGroupSizeModeClampsAtFloor) {
  // Group of 3 accounts but only 1 reports the task; literal mode uses 3
  // over |U_j| = 2 -> negative weight, clamped to the floor.
  auto input = make_input(1, {{{0, 1.0, 0.0}}, {}, {}, {{0, 5.0, 0.1}}});
  const AccountGrouping grouping({{0, 1, 2}, {3}}, 4);
  DataGroupingOptions opt;
  opt.size_from_task_participants = false;
  const GroupedData grouped = group_data(input, grouping, opt);
  ASSERT_EQ(grouped.group[0], 0u);
  EXPECT_NEAR(grouped.initial_weight[0], opt.weight_floor, 1e-12);
}

// The CSR layout against the nested task x group grid, field by field and
// bit for bit, over every aggregator, both Eq. (4) size modes, silent
// accounts, unreported tasks, silent groups, singletons and one group.
TEST(DataGrouping, MatchesNestedGridOracle) {
  const GroupAggregate modes[] = {
      GroupAggregate::kInverseDeviation, GroupAggregate::kMean,
      GroupAggregate::kMedian, GroupAggregate::kTrimmedMean,
      GroupAggregate::kHuber};
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  Rng rng(2024);
  std::size_t silent_groups = 0, unreported_tasks = 0, cells = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n_tasks = 1 + rng.uniform_index(9);
    const std::size_t n_accounts = 1 + rng.uniform_index(30);
    FrameworkInput input;
    input.task_count = n_tasks;
    input.accounts.resize(n_accounts);
    for (auto& account : input.accounts) {
      if (rng.bernoulli(0.2)) continue;  // an account with no reports
      for (std::size_t j = 0; j < n_tasks; ++j) {
        // The last task of odd trials is never reported.
        if (trial % 2 == 1 && j + 1 == n_tasks) continue;
        if (!rng.bernoulli(0.5)) continue;
        // Duplicates (the Sybil case) and ties, and full-precision values
        // whose sums round differently in another order.
        const double value =
            rng.bernoulli(0.3) ? -50.0 : rng.uniform(-80.0, -40.0);
        account.reports.push_back({j, value, static_cast<double>(j)});
      }
      // Report order within an account is input order, not task order.
      for (std::size_t r = account.reports.size(); r > 1; --r) {
        std::swap(account.reports[r - 1],
                  account.reports[rng.uniform_index(r)]);
      }
    }
    std::vector<std::size_t> labels(n_accounts);
    const std::size_t n_labels = 1 + rng.uniform_index(n_accounts);
    for (auto& label : labels) label = rng.uniform_index(n_labels);
    const AccountGrouping groupings[] = {
        AccountGrouping::from_labels(labels),
        AccountGrouping::singletons(n_accounts),
        AccountGrouping::from_labels(std::vector<std::size_t>(n_accounts, 0))};
    for (const AccountGrouping& grouping : groupings) {
      for (const GroupAggregate mode : modes) {
        for (const bool participants : {true, false}) {
          DataGroupingOptions options;
          options.aggregate = mode;
          options.size_from_task_participants = participants;
          const GroupedData csr = group_data(input, grouping, options);
          const oracle::NestedGroupedData nested =
              oracle::group_data_nested(input, grouping, options);
          ASSERT_EQ(csr.task_count(), n_tasks);
          ASSERT_EQ(csr.group_count(), grouping.group_count());
          std::size_t c = 0;
          for (std::size_t j = 0; j < n_tasks; ++j) {
            ASSERT_EQ(csr.task_begin[j], c) << "task " << j;
            for (const oracle::NestedCell& cell : nested.per_task[j]) {
              ASSERT_LT(c, csr.cell_count());
              EXPECT_EQ(csr.group[c], cell.group);
              EXPECT_TRUE(same_bits(csr.value[c], cell.value))
                  << "task " << j << " group " << cell.group;
              EXPECT_TRUE(same_bits(csr.initial_weight[c],
                                    cell.initial_weight))
                  << "task " << j << " group " << cell.group;
              EXPECT_EQ(csr.member_count[c], cell.member_count);
              ++c;
            }
            if (nested.per_task[j].empty()) ++unreported_tasks;
          }
          ASSERT_EQ(csr.task_begin[n_tasks], c);
          ASSERT_EQ(csr.cell_count(), c);
          cells += c;
          for (std::size_t k = 0; k < grouping.group_count(); ++k) {
            EXPECT_EQ(csr.group_task_count[k],
                      nested.tasks_of_group[k].size());
            if (nested.tasks_of_group[k].empty()) ++silent_groups;
          }
        }
      }
    }
  }
  EXPECT_GT(silent_groups, 0u);
  EXPECT_GT(unreported_tasks, 0u);
  EXPECT_GT(cells, 0u);
}

TEST(DataGrouping, RejectsOutOfRangeReports) {
  const auto input = make_input(2, {{{0, 1.0, 0.0}, {2, 1.0, 0.1}}});
  const auto grouping = AccountGrouping::singletons(1);
  EXPECT_THROW(group_data(input, grouping), std::invalid_argument);
  const GroupingReport task_out_of_range[] = {{0, 2, 1.0}};
  EXPECT_THROW(group_data(2, task_out_of_range, grouping),
               std::invalid_argument);
  const GroupingReport account_out_of_range[] = {{1, 0, 1.0}};
  EXPECT_THROW(group_data(2, account_out_of_range, grouping),
               std::invalid_argument);
}

// The reusing form resizes a table that held a larger or smaller campaign
// and writes exactly what a fresh table gets.
TEST(DataGrouping, ReusedTableMatchesFreshTable) {
  Rng rng(77);
  GroupedData reused;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n_tasks = 1 + rng.uniform_index(12);
    const std::size_t n_accounts = 1 + rng.uniform_index(60);
    std::vector<GroupingReport> reports;
    for (std::size_t a = 0; a < n_accounts; ++a) {
      for (std::size_t j = 0; j < n_tasks; ++j) {
        if (rng.bernoulli(0.4)) {
          reports.push_back({static_cast<std::uint32_t>(a),
                             static_cast<std::uint32_t>(j),
                             rng.uniform(-80.0, -40.0)});
        }
      }
    }
    std::vector<std::size_t> labels(n_accounts);
    for (auto& label : labels) label = rng.uniform_index(1 + n_accounts / 3);
    const AccountGrouping grouping = AccountGrouping::from_labels(labels);
    const GroupedData fresh = group_data(n_tasks, reports, grouping);
    group_data(n_tasks, reports, grouping, {}, reused);
    EXPECT_EQ(reused.task_begin, fresh.task_begin);
    EXPECT_EQ(reused.group, fresh.group);
    EXPECT_EQ(reused.value, fresh.value);
    EXPECT_EQ(reused.initial_weight, fresh.initial_weight);
    EXPECT_EQ(reused.member_count, fresh.member_count);
    EXPECT_EQ(reused.group_task_count, fresh.group_task_count);
  }
}

// The flat form reads each account's reports as one slice, so it needs
// them in account order (any order within an account).
TEST(DataGrouping, FlatReportsMustBeInAccountOrder) {
  const auto grouping = AccountGrouping::singletons(3);
  const GroupingReport ordered[] = {
      {0, 1, 1.0}, {0, 0, 2.0}, {2, 0, 3.0}, {2, 1, 4.0}};
  EXPECT_NO_THROW(group_data(2, ordered, grouping));
  const GroupingReport unordered[] = {{2, 0, 3.0}, {0, 0, 1.0}};
  EXPECT_THROW(group_data(2, unordered, grouping), std::invalid_argument);
}

// The inline one-value aggregate against the general path, bit for bit,
// on signed zeros, subnormals, infinities, NaN and ordinary values, under
// two deviation epsilons.
TEST(DataGrouping, OneValueAggregateMatchesGeneralPath) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values{0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min() / 3.0,
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::max(),
                             kInf,
                             -kInf,
                             nan,
                             -nan,
                             1e-300,
                             1e300,
                             -50.0};
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    values.push_back(rng.uniform(-100.0, 100.0) *
                     std::pow(10.0, rng.uniform(-12.0, 12.0)));
  }
  for (const double epsilon : {1e-6, 0.0}) {
    DataGroupingOptions options;
    options.deviation_epsilon = epsilon;
    for (const double v : values) {
      const double one[] = {v};
      const double fast = aggregate_group_values(one, options);
      const double general = aggregate_group_values_general(one, options);
      EXPECT_EQ(std::memcmp(&fast, &general, sizeof(double)), 0)
          << "value " << v << " epsilon " << epsilon;
    }
  }
}

// --- Framework (Algorithm 2) ------------------------------------------------

TEST(Framework, OracleGroupingNeutralizesPaperAttack) {
  const auto input = eval::paper_example_input();
  const AccountGrouping oracle =
      AccountGrouping::from_labels(eval::paper_example_user_labels());
  const FrameworkResult r = run_framework(input, oracle);
  EXPECT_TRUE(r.converged);
  // The three -50 submissions collapse into one group datum; estimates for
  // T1/T3/T4 stay close to the legitimate data.
  EXPECT_LT(r.truths[0], -65.0);
  EXPECT_LT(r.truths[2], -65.0);
  EXPECT_LT(r.truths[3], -62.0);
}

TEST(Framework, AgTrGroupingMatchesOracleOnPaperExample) {
  const auto input = eval::paper_example_input();
  const FrameworkResult by_agtr = run_framework(input, AgTr());
  const AccountGrouping oracle =
      AccountGrouping::from_labels(eval::paper_example_user_labels());
  const FrameworkResult by_oracle = run_framework(input, oracle);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(by_agtr.truths[j], by_oracle.truths[j], 1e-6) << j;
  }
}

TEST(Framework, SingletonGroupingDegeneratesTowardCrh) {
  // With every account its own group, the framework is account-level
  // CRH-style TD; on the attacked example it should also be corrupted.
  const auto input = eval::paper_example_input();
  const auto singles = AccountGrouping::singletons(input.accounts.size());
  const FrameworkResult r = run_framework(input, singles);
  EXPECT_GT(r.truths[0], -65.0);  // corrupted toward -50
}

TEST(Framework, GroupWeightsPenalizeSybilGroup) {
  const auto input = eval::paper_example_input();
  const AccountGrouping oracle =
      AccountGrouping::from_labels(eval::paper_example_user_labels());
  const FrameworkResult r = run_framework(input, oracle);
  // Group 3 is the Sybil group (-50s); its final weight should be the
  // smallest among groups that reported multiple tasks.
  ASSERT_EQ(r.group_weights.size(), 4u);
  EXPECT_LT(r.group_weights[3], r.group_weights[0]);
}

TEST(Framework, TruthsWithinDataRange) {
  const auto input = eval::paper_example_input();
  const FrameworkResult r = run_framework(input, AgTs());
  for (double t : r.truths) {
    EXPECT_GE(t, -95.0);
    EXPECT_LE(t, -45.0);
  }
}

TEST(Framework, HandlesUncoveredTask) {
  auto input = make_input(2, {{{0, -60.0, 0.0}}});
  const FrameworkResult r =
      run_framework(input, AccountGrouping::singletons(1));
  EXPECT_NEAR(r.truths[0], -60.0, 1e-9);
  EXPECT_TRUE(std::isnan(r.truths[1]));
}

TEST(Framework, MismatchedGroupingIsRejected) {
  const auto input = eval::paper_example_input();
  const auto wrong = AccountGrouping::singletons(3);
  EXPECT_THROW(run_framework(input, wrong), std::invalid_argument);
}

TEST(Framework, Eq5InitAblationChangesInitOnly) {
  const auto input = eval::paper_example_input();
  FrameworkOptions with_eq5, without;
  without.init_with_eq5 = false;
  const AccountGrouping oracle =
      AccountGrouping::from_labels(eval::paper_example_user_labels());
  const auto a = run_framework(input, oracle, with_eq5);
  const auto b = run_framework(input, oracle, without);
  // Both converge; estimates agree closely on this easy instance.
  EXPECT_TRUE(a.converged);
  EXPECT_TRUE(b.converged);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(a.truths[j], b.truths[j], 2.0);
  }
}

// The batch run_framework builds its cells in workspace storage; it must
// equal the framework run over the group_data table bit for bit, over
// every aggregator, both Eq. (4) size modes and both initializations, on
// inputs whose groups interleave across accounts, with silent accounts,
// repeated (account, task) reports, unreported tasks and single-report
// tasks.
TEST(Framework, BatchPathMatchesGroupedTableBitForBit) {
  const GroupAggregate modes[] = {
      GroupAggregate::kInverseDeviation, GroupAggregate::kMean,
      GroupAggregate::kMedian, GroupAggregate::kTrimmedMean,
      GroupAggregate::kHuber};
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  Rng rng(4242);
  std::size_t silent = 0, repeated = 0, unreported = 0, single = 0, runs = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n_tasks = 2 + rng.uniform_index(10);
    const std::size_t n_accounts = 3 + rng.uniform_index(40);
    FrameworkInput input;
    input.task_count = n_tasks;
    input.accounts.resize(n_accounts);
    // The last task is never reported; the one before it only by the
    // first account that reports at all.
    bool single_taken = false;
    for (auto& account : input.accounts) {
      if (rng.bernoulli(0.15)) {
        ++silent;
        continue;
      }
      for (std::size_t j = 0; j + 2 < n_tasks; ++j) {
        if (!rng.bernoulli(0.6)) continue;
        const double value =
            rng.bernoulli(0.3) ? -50.0 : rng.uniform(-80.0, -40.0);
        account.reports.push_back({j, value, static_cast<double>(j)});
        if (rng.bernoulli(0.2)) {  // the same task again
          account.reports.push_back(
              {j, rng.uniform(-80.0, -40.0), static_cast<double>(j) + 0.5});
          ++repeated;
        }
      }
      if (!single_taken) {
        account.reports.push_back({n_tasks - 2, -61.0, 0.0});
        single_taken = true;
      }
      for (std::size_t r = account.reports.size(); r > 1; --r) {
        std::swap(account.reports[r - 1],
                  account.reports[rng.uniform_index(r)]);
      }
    }
    ++unreported;
    if (single_taken) ++single;
    // Random labels: each group's members are spread over the accounts.
    std::vector<std::size_t> labels(n_accounts);
    const std::size_t n_labels = 1 + rng.uniform_index(n_accounts);
    for (auto& label : labels) label = rng.uniform_index(n_labels);
    const AccountGrouping grouping = AccountGrouping::from_labels(labels);
    for (const GroupAggregate mode : modes) {
      for (const bool participants : {true, false}) {
        for (const bool eq5 : {true, false}) {
          FrameworkOptions options;
          options.data_grouping.aggregate = mode;
          options.data_grouping.size_from_task_participants = participants;
          options.init_with_eq5 = eq5;
          const FrameworkResult batch = run_framework(input, grouping, options);
          const FrameworkResult table = run_framework(
              group_data(input, grouping, options.data_grouping), grouping,
              options);
          EXPECT_TRUE(same_bits(batch.truths, table.truths))
              << "trial " << trial << " mode " << static_cast<int>(mode);
          EXPECT_TRUE(same_bits(batch.group_weights, table.group_weights))
              << "trial " << trial << " mode " << static_cast<int>(mode);
          EXPECT_EQ(batch.iterations, table.iterations);
          EXPECT_TRUE(std::isnan(batch.truths[n_tasks - 1]));
          ++runs;
        }
      }
    }
  }
  EXPECT_GT(silent, 0u);
  EXPECT_GT(repeated, 0u);
  EXPECT_GT(single, 0u);
  EXPECT_EQ(unreported, 8u);
  EXPECT_EQ(runs, 8u * 20u);
}

}  // namespace
}  // namespace sybiltd::core
