// Attack forensics: a platform operator's view of a suspicious campaign.
//
// Generates a campaign with both attack types, then walks through the
// evidence each grouping method sees: the fingerprint clusters (AG-FP),
// the task-set affinity matrix (AG-TS), and the trajectory dissimilarity
// matrix (AG-TR) — then cross-references the three verdicts per account
// and reports precision/recall of "flagged as Sybil" against ground truth.
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/ag_fp.h"
#include "core/ag_tr.h"
#include "core/ag_ts.h"
#include "eval/adapters.h"
#include "ml/clustering_metrics.h"
#include "mcs/scenario.h"

using namespace sybiltd;

namespace {

// An account is "flagged" by a grouping if it shares a group with at least
// one other account — some user appears to own several accounts.
std::vector<bool> flagged_accounts(const core::AccountGrouping& grouping) {
  std::vector<bool> flagged(grouping.account_count(), false);
  for (std::size_t g = 0; g < grouping.group_count(); ++g) {
    const auto group = grouping.group(g);
    if (group.size() < 2) continue;
    for (std::size_t account : group) flagged[account] = true;
  }
  return flagged;
}

void report_flags(const char* method, const std::vector<bool>& flagged,
                  const mcs::ScenarioData& data) {
  int tp = 0, fp = 0, fn = 0;
  for (std::size_t i = 0; i < data.accounts.size(); ++i) {
    if (flagged[i] && data.accounts[i].is_sybil) ++tp;
    if (flagged[i] && !data.accounts[i].is_sybil) ++fp;
    if (!flagged[i] && data.accounts[i].is_sybil) ++fn;
  }
  const double precision = tp + fp > 0 ? 1.0 * tp / (tp + fp) : 1.0;
  const double recall = tp + fn > 0 ? 1.0 * tp / (tp + fn) : 1.0;
  std::printf("  %-6s flags %2d accounts: precision %.2f, recall %.2f\n",
              method, tp + fp, precision, recall);
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 99;
  const auto data =
      mcs::generate_scenario(mcs::make_paper_scenario(0.6, 0.7, seed));
  const auto input = eval::to_framework_input(data);
  const std::size_t n = data.accounts.size();

  std::printf("campaign: %zu accounts / %zu true users (seed %llu)\n\n", n,
              data.user_count, static_cast<unsigned long long>(seed));

  // --- AG-FP evidence -------------------------------------------------------
  const auto fp_grouping = core::AgFp().group(input);
  std::printf("AG-FP device-fingerprint clusters:\n");
  for (std::size_t g = 0; g < fp_grouping.group_count(); ++g) {
    const auto group = fp_grouping.group(g);
    if (group.size() < 2) continue;
    std::printf("  cluster:");
    for (std::size_t i : group) {
      std::printf(" %s(%s)", data.accounts[i].name.c_str(),
                  data.devices[data.accounts[i].device].model_name().c_str());
    }
    std::printf("\n");
  }

  // --- AG-TS evidence -------------------------------------------------------
  const auto affinity = core::AgTs::affinity_matrix(input);
  std::printf("\nAG-TS strongest task-set affinities (A > 1):\n");
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (affinity[i][j] > 1.0) {
        std::printf("  %-9s ~ %-9s  A = %.2f\n",
                    data.accounts[i].name.c_str(),
                    data.accounts[j].name.c_str(), affinity[i][j]);
      }
    }
  }

  // --- AG-TR evidence -------------------------------------------------------
  const core::AgTr agtr;
  const auto matrices = agtr.dissimilarity_matrices(input);
  std::printf("\nAG-TR most similar trajectories (D < 1):\n");
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (matrices.dissimilarity[i][j] < 1.0) {
        std::printf("  %-9s ~ %-9s  D = %.3f\n",
                    data.accounts[i].name.c_str(),
                    data.accounts[j].name.c_str(),
                    matrices.dissimilarity[i][j]);
      }
    }
  }

  // --- verdicts ---------------------------------------------------------------
  const auto ts_grouping = core::AgTs().group(input);
  const auto tr_grouping = agtr.group(input);
  std::printf("\nflagging quality (account shares a group with another):\n");
  report_flags("AG-FP", flagged_accounts(fp_grouping), data);
  report_flags("AG-TS", flagged_accounts(ts_grouping), data);
  report_flags("AG-TR", flagged_accounts(tr_grouping), data);

  std::printf("\nper-account verdict matrix:\n");
  TextTable table({"account", "device", "truth", "FP", "TS", "TR"});
  const auto fp_flags = flagged_accounts(fp_grouping);
  const auto ts_flags = flagged_accounts(ts_grouping);
  const auto tr_flags = flagged_accounts(tr_grouping);
  for (std::size_t i = 0; i < n; ++i) {
    table.add_row({data.accounts[i].name,
                   data.devices[data.accounts[i].device].model_name(),
                   data.accounts[i].is_sybil ? "SYBIL" : "legit",
                   fp_flags[i] ? "flag" : "-", ts_flags[i] ? "flag" : "-",
                   tr_flags[i] ? "flag" : "-"});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}
