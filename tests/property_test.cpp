// Randomized property tests of the end-to-end framework invariants:
// bounded truths, permutation invariance, grouping-partition validity,
// monotone damage, and sweep-stat consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "core/ag_tr.h"
#include "core/ag_ts.h"
#include "core/framework.h"
#include "eval/adapters.h"
#include "eval/experiment.h"

namespace sybiltd {
namespace {

class FrameworkProperties : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  mcs::ScenarioData make_data() const {
    Rng rng(GetParam());
    const double legit = rng.uniform(0.2, 1.0);
    const double sybil = rng.uniform(0.2, 1.0);
    return mcs::generate_scenario(
        mcs::make_paper_scenario(legit, sybil, GetParam()));
  }
};

TEST_P(FrameworkProperties, TruthsStayWithinObservedRange) {
  const auto data = make_data();
  const auto input = eval::to_framework_input(data);
  double lo = 1e18, hi = -1e18;
  for (const auto& account : input.accounts) {
    for (const auto& report : account.reports) {
      lo = std::min(lo, report.value);
      hi = std::max(hi, report.value);
    }
  }
  for (auto method : {eval::Method::kCrh, eval::Method::kTdFp,
                      eval::Method::kTdTs, eval::Method::kTdTr}) {
    const auto run = eval::run_method(method, data);
    for (double truth : run.truths) {
      if (std::isnan(truth)) continue;
      EXPECT_GE(truth, lo - 1e-6) << eval::method_name(method);
      EXPECT_LE(truth, hi + 1e-6) << eval::method_name(method);
    }
  }
}

TEST_P(FrameworkProperties, GroupingsArePartitions) {
  const auto data = make_data();
  const auto input = eval::to_framework_input(data);
  for (auto method : {eval::GroupingMethod::kAgFp,
                      eval::GroupingMethod::kAgTs,
                      eval::GroupingMethod::kAgTr}) {
    const auto grouping = eval::run_grouping(method, data).grouping;
    // AccountGrouping's constructor validates the partition; check the
    // external view too: labels cover all accounts and group_of matches.
    const auto labels = grouping.labels();
    ASSERT_EQ(labels.size(), data.accounts.size());
    std::size_t total = 0;
    for (std::size_t g = 0; g < grouping.group_count(); ++g) {
      total += grouping.group(g).size();
    }
    EXPECT_EQ(total, data.accounts.size());
  }
}

TEST_P(FrameworkProperties, AccountPermutationInvariance) {
  // Shuffling the order in which accounts are handed to the framework must
  // not change the estimated truths (AG-TR grouping is order-independent).
  const auto data = make_data();
  auto input = eval::to_framework_input(data);
  const auto baseline =
      core::run_framework(input, core::AgTr()).truths;

  Rng rng(GetParam() ^ 0xabcdef);
  std::vector<std::size_t> perm(input.accounts.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  rng.shuffle(perm);
  core::FrameworkInput shuffled;
  shuffled.task_count = input.task_count;
  for (std::size_t i : perm) shuffled.accounts.push_back(input.accounts[i]);
  const auto permuted =
      core::run_framework(shuffled, core::AgTr()).truths;
  for (std::size_t j = 0; j < baseline.size(); ++j) {
    if (std::isnan(baseline[j])) {
      EXPECT_TRUE(std::isnan(permuted[j]));
    } else {
      EXPECT_NEAR(baseline[j], permuted[j], 1e-9) << "task " << j;
    }
  }
}

TEST_P(FrameworkProperties, RemovingSybilAccountsOnlyHelpsCrh) {
  // CRH on the campaign with all Sybil accounts stripped is the clean
  // reference; CRH with them present must be at least as bad.
  const auto data = make_data();
  mcs::ScenarioData clean = data;
  clean.accounts.erase(
      std::remove_if(clean.accounts.begin(), clean.accounts.end(),
                     [](const mcs::AccountRecord& a) { return a.is_sybil; }),
      clean.accounts.end());
  const double attacked = eval::run_method(eval::Method::kCrh, data).mae;
  const double stripped = eval::run_method(eval::Method::kCrh, clean).mae;
  EXPECT_GE(attacked + 1e-9, stripped);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameworkProperties,
                         ::testing::Values(9001, 9002, 9003, 9004, 9005,
                                           9006));

TEST(SweepStats, MeanMatchesPlainSweepAndStddevSane) {
  const std::vector<double> sybil{0.4, 0.8};
  const auto plain =
      eval::sweep_mae(eval::Method::kCrh, 0.5, sybil, 3, 77);
  const auto stats =
      eval::sweep_mae_stats(eval::Method::kCrh, 0.5, sybil, 3, 77);
  ASSERT_EQ(stats.size(), plain.size());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    EXPECT_NEAR(stats[i].mean, plain[i], 1e-9);
    EXPECT_GE(stats[i].stddev, 0.0);
  }
  // Single seed -> zero stddev.
  const auto single =
      eval::sweep_ari_stats(eval::GroupingMethod::kAgTr, 0.5, sybil, 1, 77);
  for (const auto& stat : single) EXPECT_EQ(stat.stddev, 0.0);
}

}  // namespace
}  // namespace sybiltd
