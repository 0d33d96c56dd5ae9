// trace_analyzer — a command-line tool a platform operator can point at an
// archived campaign trace (mcs/trace_io CSV) to re-run the analysis:
// grouping, per-method estimates, Sybil flags, and accuracy if the trace
// carries ground truth.
//
// Usage:
//   trace_analyzer <trace.csv> [--method crh|td-fp|td-ts|td-tr|all]
//   trace_analyzer --demo      (writes demo_trace.csv and analyzes it)
#include <cstdio>
#include <cstring>
#include <string>

#include "common/table.h"
#include "eval/adapters.h"
#include "eval/experiment.h"
#include "ml/clustering_metrics.h"
#include "mcs/trace_io.h"

using namespace sybiltd;

namespace {

int analyze(const mcs::ScenarioData& data, const std::string& method) {
  std::printf("trace: %zu tasks, %zu accounts, %zu reports\n\n",
              data.tasks.size(), data.accounts.size(),
              [&] {
                std::size_t n = 0;
                for (const auto& a : data.accounts) n += a.reports.size();
                return n;
              }());

  // Grouping report.
  const auto grouping = eval::run_grouping(eval::GroupingMethod::kAgTr, data);
  std::printf("AG-TR grouping (%zu groups; multi-account groups are "
              "suspected Sybil users):\n",
              grouping.grouping.group_count());
  for (std::size_t g = 0; g < grouping.grouping.group_count(); ++g) {
    const auto group = grouping.grouping.group(g);
    if (group.size() < 2) continue;
    std::printf("  suspected:");
    for (std::size_t i : group) {
      std::printf(" %s", data.accounts[i].name.c_str());
    }
    std::printf("\n");
  }
  const auto user_labels = data.true_user_labels();
  const bool has_truth = !user_labels.empty();
  if (has_truth) {
    std::printf("  ARI vs recorded user labels: %.3f\n", grouping.ari);
  }

  // Method table.
  std::vector<eval::Method> methods;
  if (method == "all") {
    methods = {eval::Method::kCrh, eval::Method::kTdFp, eval::Method::kTdTs,
               eval::Method::kTdTr};
  } else if (method == "crh") {
    methods = {eval::Method::kCrh};
  } else if (method == "td-fp") {
    methods = {eval::Method::kTdFp};
  } else if (method == "td-ts") {
    methods = {eval::Method::kTdTs};
  } else if (method == "td-tr") {
    methods = {eval::Method::kTdTr};
  } else {
    std::fprintf(stderr, "unknown method '%s'\n", method.c_str());
    return 2;
  }

  std::vector<std::string> header{"task", "ground truth"};
  for (auto m : methods) header.push_back(eval::method_name(m));
  TextTable table(header);
  std::vector<eval::MethodRun> runs;
  for (auto m : methods) runs.push_back(eval::run_method(m, data));
  for (std::size_t j = 0; j < data.tasks.size(); ++j) {
    std::vector<double> row{data.tasks[j].ground_truth};
    for (const auto& run : runs) row.push_back(run.truths[j]);
    table.add_row(data.tasks[j].name, row);
  }
  std::printf("\n%s", table.render().c_str());
  std::printf("\nMAE:");
  for (std::size_t m = 0; m < methods.size(); ++m) {
    std::printf("  %s %.2f", eval::method_name(methods[m]).c_str(),
                runs[m].mae);
  }
  std::printf("\n");

  // Convergence telemetry for the framework methods: how many CRH
  // iterations each needed, how far the last truth update moved, and how
  // concentrated the final group weights are (entropy near 0 = one group
  // dominates).
  bool printed_header = false;
  for (std::size_t m = 0; m < methods.size(); ++m) {
    if (runs[m].iterations == 0) continue;  // baseline, no framework run
    if (!printed_header) {
      std::printf("\nconvergence (framework methods):\n");
      std::printf("  %-10s %6s %10s %9s %10s\n", "method", "iters",
                  "residual", "entropy", "converged");
      printed_header = true;
    }
    std::printf("  %-10s %6zu %10.2e %9.3f %10s\n",
                eval::method_name(methods[m]).c_str(), runs[m].iterations,
                runs[m].final_residual, runs[m].weight_entropy,
                runs[m].converged ? "yes" : "no");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <trace.csv> [--method crh|td-fp|td-ts|td-tr|all]"
                 "\n       %s --demo\n",
                 argv[0], argv[0]);
    return 2;
  }

  std::string method = "all";
  for (int i = 2; i + 1 < argc + 1; ++i) {
    if (i < argc && std::strcmp(argv[i], "--method") == 0 && i + 1 < argc) {
      method = argv[i + 1];
    }
  }

  try {
    if (std::strcmp(argv[1], "--demo") == 0) {
      const auto data =
          mcs::generate_scenario(mcs::make_paper_scenario(0.6, 0.8, 404));
      mcs::save_trace(data, "demo_trace.csv");
      std::printf("wrote demo_trace.csv\n\n");
      return analyze(mcs::load_trace("demo_trace.csv"), method);
    }
    return analyze(mcs::load_trace(argv[1]), method);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
