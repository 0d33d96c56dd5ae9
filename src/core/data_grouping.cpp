#include "core/data_grouping.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/stats.h"
#include "common/workspace.h"

namespace sybiltd::core {

double aggregate_group_values_general(std::span<const double> values,
                                      const DataGroupingOptions& options) {
  SYBILTD_CHECK(!values.empty(), "aggregating an empty group");
  switch (options.aggregate) {
    case GroupAggregate::kMean:
      return mean(values);
    case GroupAggregate::kMedian:
      return median(values);
    case GroupAggregate::kTrimmedMean:
      return trimmed_mean(values, options.trim_fraction);
    case GroupAggregate::kHuber:
      return huber_location(values, options.huber_k);
    case GroupAggregate::kInverseDeviation: {
      const double mu = mean(values);
      double num = 0.0, den = 0.0;
      for (double v : values) {
        const double w = 1.0 / (std::abs(v - mu) + options.deviation_epsilon);
        num += w * v;
        den += w;
      }
      return num / den;
    }
  }
  SYBILTD_ASSERT(false);
  return 0.0;
}

namespace {

// reports_of over a FrameworkInput: account a's reports.
auto input_reports(const FrameworkInput& input) {
  return [&input](std::size_t a) -> const std::vector<AccountObservation>& {
    return input.accounts[a].reports;
  };
}

}  // namespace

TaskRows scatter_input_rows(const FrameworkInput& input,
                            const AccountGrouping& grouping) {
  SYBILTD_CHECK(grouping.account_count() == input.accounts.size(),
                "grouping does not match the input accounts");
  const auto reports_of = input_reports(input);
  Workspace& workspace = Workspace::local();
  TaskRows rows;
  rows.begin = workspace.borrow<std::size_t>(input.task_count + 1);
  const std::size_t n = count_task_rows(input.task_count, grouping,
                                        reports_of, rows.begin.data());
  rows.group = workspace.borrow<std::uint32_t>(n);
  rows.value = workspace.borrow<double>(n);
  scatter_task_rows(input.task_count, grouping, reports_of, rows.begin.data(),
                    rows.group.data(), rows.value.data());
  return rows;
}

std::size_t aggregate_task_rows(std::size_t task_count,
                                const AccountGrouping& grouping,
                                const DataGroupingOptions& options,
                                const CellArrays& cells) {
  std::fill(cells.group_task_count,
            cells.group_task_count + grouping.group_count(), std::uint32_t{0});
  std::size_t c = 0;
  for (std::size_t j = 0; j < task_count; ++j) {
    // Row j is [task_begin[j], task_begin[j + 1]) until task_begin[j]
    // becomes the row's first cell; c never passes the row start.
    const std::size_t begin = cells.task_begin[j];
    const std::size_t end = cells.task_begin[j + 1];
    cells.task_begin[j] = c;
    const double submitters = static_cast<double>(end - begin);
    for (std::size_t i = begin; i < end; ++c) {
      const std::uint32_t k = cells.group[i];
      std::size_t run_end = i + 1;
      while (run_end < end && cells.group[run_end] == k) ++run_end;
      const std::size_t members = run_end - i;
      cells.value[c] = aggregate_group_values(
          std::span<const double>(cells.value + i, members), options);
      cells.group[c] = k;
      if (cells.member_count != nullptr) {
        cells.member_count[c] = static_cast<std::uint32_t>(members);
      }
      cells.initial_weight[c] = initial_cell_weight(
          static_cast<double>(options.size_from_task_participants
                                  ? members
                                  : grouping.group(k).size()),
          submitters, options);
      ++cells.group_task_count[k];
      i = run_end;
    }
  }
  cells.task_begin[task_count] = c;
  return c;
}

void group_data(std::size_t task_count, std::span<const GroupingReport> reports,
                const AccountGrouping& grouping,
                const DataGroupingOptions& options, GroupedData& out) {
  // Each account's reports are one slice of the span.
  const std::size_t n_accounts = grouping.account_count();
  auto account_begin = Workspace::local().borrow<std::size_t>(n_accounts + 1);
  std::size_t a = 0;
  for (std::size_t r = 0; r < reports.size(); ++r) {
    SYBILTD_CHECK(reports[r].account < n_accounts,
                  "account index out of range");
    SYBILTD_CHECK(r == 0 || reports[r - 1].account <= reports[r].account,
                  "grouping reports must be listed in account order");
    while (a <= reports[r].account) account_begin[a++] = r;
  }
  while (a <= n_accounts) account_begin[a++] = reports.size();
  const auto reports_of = [&](std::size_t account) {
    return reports.subspan(account_begin[account],
                           account_begin[account + 1] - account_begin[account]);
  };
  group_account_reports(task_count, grouping, reports_of, options, out);
}

GroupedData group_data(std::size_t task_count,
                       std::span<const GroupingReport> reports,
                       const AccountGrouping& grouping,
                       const DataGroupingOptions& options) {
  GroupedData out;
  group_data(task_count, reports, grouping, options, out);
  return out;
}

GroupedData group_data(const FrameworkInput& input,
                       const AccountGrouping& grouping,
                       const DataGroupingOptions& options) {
  SYBILTD_CHECK(grouping.account_count() == input.accounts.size(),
                "grouping does not match the input accounts");
  GroupedData out;
  group_account_reports(input.task_count, grouping, input_reports(input),
                        options, out);
  return out;
}

}  // namespace sybiltd::core
