// Test-local oracles for the grouping methods and the data grouping.
// Eq. (6) and Eq. (8) read literally, one edge test per unordered account
// pair, with none of the blocking, pruning or set-join machinery the
// production paths use; and Eqs. (3)-(4) over a dense task x group grid of
// value lists.  Quadratic on purpose — tests compare the production paths
// against these on small inputs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/error.h"
#include "core/ag_tr.h"
#include "core/ag_ts.h"
#include "core/data_grouping.h"
#include "core/grouping.h"
#include "graph/union_find.h"

namespace sybiltd::oracle {

// AG-TR: every pair's D(i,j) from the full dissimilarity matrices, the
// edges with D < phi merged with a union-find, components as groups.
// Canonical labels (numbered by first account occurrence) and ascending
// member order, which is what AgTr::group returns.
inline core::AccountGrouping agtr_all_pairs(const core::FrameworkInput& input,
                                            const core::AgTrOptions& options =
                                                {}) {
  const auto d = core::AgTr(options).dissimilarity_matrices(input);
  graph::UnionFind uf(d.dissimilarity.size());
  for (std::size_t i = 0; i < d.dissimilarity.size(); ++i) {
    for (std::size_t j = i + 1; j < d.dissimilarity.size(); ++j) {
      if (d.dissimilarity[i][j] < options.phi) uf.unite(i, j);
    }
  }
  return core::AccountGrouping::from_labels(uf.labels());
}

// AG-TS: the dense affinity matrix thresholded at A > rho, merged with a
// union-find.  Canonical labels (numbered by first account occurrence),
// which is what AccountGrouping::labels() returns.
inline std::vector<std::size_t> agts_dense_labels(
    const core::FrameworkInput& input, double rho) {
  const auto affinity = core::AgTs::affinity_matrix(input);
  graph::UnionFind uf(affinity.size());
  for (std::size_t i = 0; i < affinity.size(); ++i) {
    for (std::size_t j = i + 1; j < affinity.size(); ++j) {
      if (affinity[i][j] > rho) uf.unite(i, j);
    }
  }
  return uf.labels();
}

// One group's presence on one task, as the nested layout stores it.
struct NestedCell {
  std::size_t group = 0;
  double value = 0.0;
  double initial_weight = 0.0;
  std::size_t member_count = 0;
};

struct NestedGroupedData {
  // per_task[j] lists the groups reporting task j in group order.
  std::vector<std::vector<NestedCell>> per_task;
  // tasks_of_group[k] = sorted task ids the group covers (T~_k).
  std::vector<std::vector<std::size_t>> tasks_of_group;
};

// Eqs. (3)-(4) over a dense n_tasks x n_groups grid of value vectors, each
// filled in account order.  Same cell order and the same arithmetic per
// cell as core::group_data.
inline NestedGroupedData group_data_nested(
    const core::FrameworkInput& input, const core::AccountGrouping& grouping,
    const core::DataGroupingOptions& options = {}) {
  SYBILTD_CHECK(grouping.account_count() == input.accounts.size(),
                "grouping does not match the input accounts");
  const std::size_t n_tasks = input.task_count;
  const std::size_t n_groups = grouping.group_count();
  NestedGroupedData out;
  out.per_task.resize(n_tasks);
  out.tasks_of_group.resize(n_groups);

  std::vector<std::vector<std::vector<double>>> values_by_task_group(
      n_tasks, std::vector<std::vector<double>>(n_groups));
  std::vector<std::size_t> submitters_per_task(n_tasks, 0);
  for (std::size_t i = 0; i < input.accounts.size(); ++i) {
    const std::size_t k = grouping.group_of(i);
    for (const auto& report : input.accounts[i].reports) {
      SYBILTD_CHECK(report.task < n_tasks, "report task out of range");
      values_by_task_group[report.task][k].push_back(report.value);
      ++submitters_per_task[report.task];
    }
  }
  for (std::size_t j = 0; j < n_tasks; ++j) {
    for (std::size_t k = 0; k < n_groups; ++k) {
      const auto& values = values_by_task_group[j][k];
      if (values.empty()) continue;
      NestedCell cell;
      cell.group = k;
      cell.value = core::aggregate_group_values(values, options);
      cell.member_count = values.size();
      const double group_size =
          options.size_from_task_participants
              ? static_cast<double>(values.size())
              : static_cast<double>(grouping.group(k).size());
      const double submitters = static_cast<double>(submitters_per_task[j]);
      const double w = 1.0 - group_size / submitters;  // Eq. (4)
      cell.initial_weight = std::max(w, options.weight_floor);
      out.per_task[j].push_back(cell);
      out.tasks_of_group[k].push_back(j);
    }
  }
  return out;
}

}  // namespace sybiltd::oracle
