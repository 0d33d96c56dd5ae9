// Quickstart: the smallest end-to-end use of the library.
//
// Builds a tiny MCS campaign by hand (4 tasks, 3 honest accounts, one
// Sybil attacker with 3 accounts submitting a fabricated value), runs the
// classic CRH truth discovery and the Sybil-resistant framework with
// AG-TR, and prints both estimates next to the ground truth.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>

#include "common/rng.h"
#include "core/ag_tr.h"
#include "core/framework.h"
#include "truth/crh.h"

using namespace sybiltd;

int main() {
  // Ground truth the platform wants to discover (e.g. Wi-Fi RSSI in dBm).
  const std::vector<double> ground_truth{-78.0, -65.0, -82.0, -71.0};
  const std::size_t n_tasks = ground_truth.size();

  // --- 1. honest accounts: truth + small sensing noise -------------------
  Rng rng(7);
  core::FrameworkInput input;
  input.task_count = n_tasks;
  for (int u = 0; u < 3; ++u) {
    core::AccountTrace account;
    account.name = "honest-" + std::to_string(u + 1);
    // Each user walks their own route at their own time of day.
    std::vector<std::size_t> route(n_tasks);
    for (std::size_t j = 0; j < n_tasks; ++j) route[j] = j;
    rng.shuffle(route);
    double t = 8.0 + 2.0 * u + rng.uniform(0.0, 1.0);  // walk start, hours
    for (std::size_t j : route) {
      t += rng.uniform(0.05, 0.2);  // walking + dwell between POIs
      account.reports.push_back({j, ground_truth[j] + rng.normal(0.0, 2.0), t});
    }
    input.accounts.push_back(std::move(account));
  }

  // --- 2. a Sybil attacker: one walk, three accounts, fabricated -50 -----
  // The accounts replay the same trajectory minutes apart — the signature
  // AG-TR detects.
  double walk_start = 10.5;
  std::vector<double> visit_times;
  for (std::size_t j = 0; j < n_tasks; ++j) {
    walk_start += rng.uniform(0.05, 0.2);
    visit_times.push_back(walk_start);
  }
  for (int a = 0; a < 3; ++a) {
    core::AccountTrace account;
    account.name = "sybil-" + std::to_string(a + 1);
    const double account_delay = a * rng.uniform(0.01, 0.02);  // hours
    for (std::size_t j = 0; j < n_tasks; ++j) {
      account.reports.push_back({j, -50.0 + rng.normal(0.0, 0.3),
                                 visit_times[j] + account_delay});
    }
    input.accounts.push_back(std::move(account));
  }

  // --- 3. account-level CRH (vulnerable) ----------------------------------
  truth::ObservationTable table(input.accounts.size(), n_tasks);
  for (std::size_t i = 0; i < input.accounts.size(); ++i) {
    for (const auto& r : input.accounts[i].reports) {
      table.add(i, r.task, r.value);
    }
  }
  const auto crh = truth::Crh().run(table);

  // --- 4. the Sybil-resistant framework with AG-TR ------------------------
  const auto framework = core::run_framework(input, core::AgTr());

  std::printf("grouping found by AG-TR:\n");
  for (std::size_t g = 0; g < framework.grouping.group_count(); ++g) {
    const auto group = framework.grouping.group(g);
    std::printf("  {");
    for (std::size_t k = 0; k < group.size(); ++k) {
      std::printf("%s%s", k ? ", " : "",
                  input.accounts[group[k]].name.c_str());
    }
    std::printf("}\n");
  }

  std::printf("\n%-8s %12s %12s %18s\n", "task", "truth", "CRH",
              "framework (AG-TR)");
  for (std::size_t j = 0; j < n_tasks; ++j) {
    std::printf("T%-7zu %12.2f %12.2f %18.2f\n", j + 1, ground_truth[j],
                crh.truths[j], framework.truths[j]);
  }

  double crh_mae = 0.0, fw_mae = 0.0;
  for (std::size_t j = 0; j < n_tasks; ++j) {
    crh_mae += std::abs(crh.truths[j] - ground_truth[j]) / n_tasks;
    fw_mae += std::abs(framework.truths[j] - ground_truth[j]) / n_tasks;
  }
  std::printf("\nMAE: CRH %.2f dBm vs framework %.2f dBm\n", crh_mae, fw_mae);
  return 0;
}
