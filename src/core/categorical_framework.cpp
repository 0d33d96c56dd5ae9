#include "core/categorical_framework.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "core/data_grouping.h"
#include "truth/categorical.h"

namespace sybiltd::core {

namespace {

using truth::kNoLabel;

std::size_t to_label(double value, std::size_t label_count) {
  const double rounded = std::round(value);
  SYBILTD_CHECK(std::abs(value - rounded) < 1e-9 && rounded >= 0.0 &&
                    rounded < static_cast<double>(label_count),
                "categorical report value is not a valid label id");
  return static_cast<std::size_t>(rounded);
}

}  // namespace

CategoricalFrameworkResult run_categorical_framework(
    const FrameworkInput& input, std::size_t label_count,
    const AccountGrouping& grouping,
    const CategoricalFrameworkOptions& options) {
  SYBILTD_CHECK(label_count >= 2, "need at least two labels");
  SYBILTD_CHECK(grouping.account_count() == input.accounts.size(),
                "grouping does not match the input accounts");
  const std::size_t n_tasks = input.task_count;
  const std::size_t n_groups = grouping.group_count();

  CategoricalFrameworkResult result;
  result.grouping = grouping;
  result.labels.assign(n_tasks, kNoLabel);
  result.group_weights.assign(n_groups, 1.0);

  // --- data grouping: each (task, group) run's plurality label ----------
  // Cells of task j are [cell_begin[j], cell_begin[j + 1]) in group order,
  // exactly as core::group_data lays out the numeric framework's cells.
  const TaskRows rows = scatter_input_rows(input, grouping);
  std::vector<std::size_t> cell_begin(n_tasks + 1, 0);
  std::vector<std::uint32_t> cell_group;
  std::vector<std::size_t> cell_label;
  std::vector<double> cell_weight;
  std::vector<std::size_t> group_task_count(n_groups, 0);
  std::vector<double> tally(label_count);
  for (std::size_t j = 0; j < n_tasks; ++j) {
    cell_begin[j] = cell_group.size();
    const std::size_t end = rows.begin[j + 1];
    const double submitters = static_cast<double>(end - rows.begin[j]);
    for (std::size_t i = rows.begin[j]; i < end;) {
      const std::uint32_t k = rows.group[i];
      std::fill(tally.begin(), tally.end(), 0.0);
      double members = 0.0;
      for (; i < end && rows.group[i] == k; ++i) {
        tally[to_label(rows.value[i], label_count)] += 1.0;
        members += 1.0;
      }
      cell_group.push_back(k);
      cell_label.push_back(static_cast<std::size_t>(
          std::max_element(tally.begin(), tally.end()) - tally.begin()));
      const double w = 1.0 - members / submitters;  // Eq. (4)
      cell_weight.push_back(std::max(w, options.weight_floor));
      ++group_task_count[k];
    }
  }
  cell_begin[n_tasks] = cell_group.size();

  // --- initialization: Eq. (4)-weighted plurality over groups -------------
  for (std::size_t j = 0; j < n_tasks; ++j) {
    if (cell_begin[j] == cell_begin[j + 1]) continue;
    std::fill(tally.begin(), tally.end(), 0.0);
    for (std::size_t c = cell_begin[j]; c < cell_begin[j + 1]; ++c) {
      tally[cell_label[c]] += options.init_with_eq4 ? cell_weight[c] : 1.0;
    }
    result.labels[j] = static_cast<std::size_t>(
        std::max_element(tally.begin(), tally.end()) - tally.begin());
  }

  // --- iterations -----------------------------------------------------------
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Group weights from 0/1 losses of the group aggregates.
    std::vector<double> errors(n_groups, 0.0);
    double total = 0.0;
    for (std::size_t j = 0; j < n_tasks; ++j) {
      if (result.labels[j] == kNoLabel) continue;
      for (std::size_t c = cell_begin[j]; c < cell_begin[j + 1]; ++c) {
        if (cell_label[c] != result.labels[j]) errors[cell_group[c]] += 1.0;
      }
    }
    for (std::size_t k = 0; k < n_groups; ++k) {
      if (group_task_count[k] == 0) continue;
      errors[k] = std::max(errors[k], options.error_epsilon);
      total += errors[k];
    }
    for (std::size_t k = 0; k < n_groups; ++k) {
      if (group_task_count[k] == 0) {
        result.group_weights[k] = 0.0;
      } else {
        result.group_weights[k] = std::log(total / errors[k]);
        if (result.group_weights[k] <= 0.0) result.group_weights[k] = 1.0;
      }
    }
    // Weighted plurality over groups.
    bool changed = false;
    for (std::size_t j = 0; j < n_tasks; ++j) {
      if (cell_begin[j] == cell_begin[j + 1]) continue;
      std::fill(tally.begin(), tally.end(), 0.0);
      for (std::size_t c = cell_begin[j]; c < cell_begin[j + 1]; ++c) {
        tally[cell_label[c]] += result.group_weights[cell_group[c]];
      }
      const auto next = static_cast<std::size_t>(
          std::max_element(tally.begin(), tally.end()) - tally.begin());
      if (next != result.labels[j]) changed = true;
      result.labels[j] = next;
    }
    if (!changed) {
      result.converged = true;
      break;
    }
  }
  return result;
}

CategoricalFrameworkResult run_categorical_framework(
    const FrameworkInput& input, std::size_t label_count,
    const AccountGrouper& grouper,
    const CategoricalFrameworkOptions& options) {
  return run_categorical_framework(input, label_count, grouper.group(input),
                                   options);
}

}  // namespace sybiltd::core
