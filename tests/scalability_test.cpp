// Tests for AG-TR's pruned evaluation at scale and the large-scenario
// generator.
#include <gtest/gtest.h>

#include "core/ag_tr.h"
#include "eval/adapters.h"
#include "grouping_oracles.h"
#include "ml/clustering_metrics.h"
#include "mcs/scenario.h"

namespace sybiltd::core {
namespace {

// Under a Sakoe–Chiba band the cascade's strict LB_Keogh stage runs too;
// the grouping must still equal the unpruned all-pairs fold.
TEST(AgTrScalable, PrunedGroupingIdenticalToExact) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto data = mcs::generate_scenario(
        mcs::make_large_scenario(40, 4, 5, 20, seed));
    const auto input = eval::to_framework_input(data);
    for (const std::size_t band : {0ul, 2ul}) {
      AgTrOptions opt;
      opt.dtw.band = band;
      const auto exact = oracle::agtr_all_pairs(input, opt);
      const auto pruned = AgTr(opt).group(input);
      EXPECT_EQ(exact.labels(), pruned.labels())
          << "seed " << seed << " band " << band;
    }
  }
}

TEST(LargeScenario, StructureMatchesParameters) {
  const auto config = mcs::make_large_scenario(50, 5, 4, 25, 9);
  const auto data = mcs::generate_scenario(config);
  EXPECT_EQ(data.tasks.size(), 25u);
  EXPECT_EQ(data.accounts.size(), 50u + 5u * 4u);
  EXPECT_EQ(data.user_count, 55u);
  // Fingerprints skipped by default for large scenarios.
  for (const auto& account : data.accounts) {
    EXPECT_TRUE(account.fingerprint.empty());
  }
  std::size_t sybil = 0;
  for (const auto& account : data.accounts) sybil += account.is_sybil;
  EXPECT_EQ(sybil, 20u);
}

TEST(LargeScenario, FingerprintFlagRestoresCaptures) {
  auto config = mcs::make_large_scenario(4, 1, 2, 10, 10);
  config.capture_fingerprints = true;
  const auto data = mcs::generate_scenario(config);
  for (const auto& account : data.accounts) {
    EXPECT_EQ(account.fingerprint.size(), 80u);
  }
}

TEST(LargeScenario, AgTrStillSeparatesAttackers) {
  const auto data = mcs::generate_scenario(
      mcs::make_large_scenario(30, 3, 5, 20, 12));
  const auto input = eval::to_framework_input(data);
  const auto grouping = AgTr().group(input);
  const double ari = ml::adjusted_rand_index(grouping.labels(),
                                             data.true_user_labels());
  EXPECT_GT(ari, 0.8);
}

}  // namespace
}  // namespace sybiltd::core
