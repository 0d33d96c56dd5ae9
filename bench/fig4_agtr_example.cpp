// Reproduces Fig. 4: the AG-TR worked example on the Table III data — the
// DTW distances over task series and timestamp series, the Eq. (8)
// dissimilarity matrix, and the phi = 1 threshold graph, whose only
// component is the Sybil group {4', 4'', 4'''} (matching the paper).
#include <cstdio>

#include "common/table.h"
#include "core/ag_tr.h"
#include "eval/paper_example.h"

using namespace sybiltd;

namespace {

void print_matrix(const char* title,
                  const std::vector<std::vector<double>>& m,
                  const std::vector<std::string>& names, int precision) {
  std::printf("%s\n", title);
  std::vector<std::string> header{""};
  header.insert(header.end(), names.begin(), names.end());
  TextTable table(header);
  for (std::size_t i = 0; i < m.size(); ++i) {
    table.add_row(names[i], m[i], precision);
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main() {
  std::printf("=== Fig. 4: AG-TR worked example (Table III data) ===\n\n");
  const auto input = eval::paper_example_input();
  const auto& names = eval::paper_example_account_names();

  const core::AgTr agtr;
  const auto m = agtr.dissimilarity_matrices(input);

  std::printf("task series (task ids in timestamp order):\n");
  for (std::size_t i = 0; i < input.accounts.size(); ++i) {
    std::printf("  X_%-4s = (", names[i].c_str());
    const auto series = core::AgTr::task_series(input.accounts[i]);
    for (std::size_t k = 0; k < series.size(); ++k) {
      std::printf("%s%.0f", k ? ", " : "", series[k]);
    }
    std::printf(")\n");
  }
  std::printf("\n");

  print_matrix("(a) DTW(X_i, X_j) — task series (total squared cost, as in "
               "the paper's matrix):",
               m.task_dtw, names, 0);
  print_matrix("(b) DTW(Y_i, Y_j) — timestamp series (hours):", m.time_dtw,
               names, 3);
  print_matrix("(c) D_ij = DTW(X) + DTW(Y) — Eq. (8):", m.dissimilarity,
               names, 3);

  std::printf("(d) edges with D < 1:\n");
  for (std::size_t i = 0; i < input.accounts.size(); ++i) {
    for (std::size_t j = i + 1; j < input.accounts.size(); ++j) {
      if (m.dissimilarity[i][j] < 1.0) {
        std::printf("  %s -- %s  (D = %.3f)\n", names[i].c_str(),
                    names[j].c_str(), m.dissimilarity[i][j]);
      }
    }
  }

  const auto grouping = agtr.group(input);
  std::printf("\nconnected components (our groups):\n");
  for (std::size_t g = 0; g < grouping.group_count(); ++g) {
    const auto group = grouping.group(g);
    std::printf("  {");
    for (std::size_t k = 0; k < group.size(); ++k) {
      std::printf("%s%s", k ? ", " : "", names[group[k]].c_str());
    }
    std::printf("}\n");
  }
  std::printf("\npaper's groups: {4', 4'', 4'''}, {1}, {2}, {3} — AG-TR "
              "correctly isolates the Sybil\naccounts with no false "
              "positives, unlike AG-TS on the same data.\n");
  return 0;
}
