#include "core/data_grouping.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/stats.h"

namespace sybiltd::core {

double aggregate_group_values(std::span<const double> values,
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

Workspace::Borrowed<GroupingReport> flatten_reports(
    const FrameworkInput& input) {
  constexpr std::size_t kMaxId = std::numeric_limits<std::uint32_t>::max();
  SYBILTD_CHECK(input.accounts.size() <= kMaxId,
                "account ids must fit in 32 bits");
  std::size_t total = 0;
  for (const auto& account : input.accounts) total += account.reports.size();
  auto flat = Workspace::local().borrow<GroupingReport>(total);
  std::size_t at = 0;
  for (std::size_t i = 0; i < input.accounts.size(); ++i) {
    for (const auto& report : input.accounts[i].reports) {
      flat[at++] = {static_cast<std::uint32_t>(i),
                    checked_task_id(report.task, input.task_count),
                    report.value};
    }
  }
  return flat;
}

CellSortedReports sort_reports_by_cell(std::size_t task_count,
                                       std::span<const GroupingReport> reports,
                                       const AccountGrouping& grouping) {
  const std::size_t n = reports.size();
  const std::size_t n_groups = grouping.group_count();
  Workspace& workspace = Workspace::local();
  CellSortedReports out{workspace.borrow<std::size_t>(task_count + 1),
                        workspace.borrow<std::uint32_t>(n),
                        workspace.borrow<double>(n)};

  // Counting-sort keys: each report's group, and per-group / per-task
  // counts turned into exclusive prefix offsets.
  auto report_group = workspace.borrow<std::uint32_t>(n);
  auto group_at = workspace.borrow<std::size_t>(n_groups + 1);
  std::size_t* task_at = out.task_begin.data();
  std::fill(group_at.begin(), group_at.end(), std::size_t{0});
  std::fill(task_at, task_at + task_count + 1, std::size_t{0});
  for (std::size_t r = 0; r < n; ++r) {
    SYBILTD_CHECK(reports[r].task < task_count, "report task out of range");
    const std::size_t k = grouping.group_of(reports[r].account);
    report_group[r] = static_cast<std::uint32_t>(k);
    ++group_at[k + 1];
    ++task_at[reports[r].task + 1];
  }
  for (std::size_t k = 0; k < n_groups; ++k) group_at[k + 1] += group_at[k];
  for (std::size_t j = 0; j < task_count; ++j) task_at[j + 1] += task_at[j];

  // Pass 1, stable by group.
  auto by_group = workspace.borrow<std::uint32_t>(n);
  for (std::size_t r = 0; r < n; ++r) {
    by_group[group_at[report_group[r]]++] = static_cast<std::uint32_t>(r);
  }
  // Pass 2, stable by task: (task, group) order, input order within a run.
  // task_at[j] is still task j's start; `cursor` advances a copy.
  auto cursor = workspace.borrow<std::size_t>(task_count);
  std::copy(task_at, task_at + task_count, cursor.begin());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t r = by_group[i];
    const std::size_t at = cursor[reports[r].task]++;
    out.group[at] = report_group[r];
    out.value[at] = reports[r].value;
  }
  return out;
}

void group_data(std::size_t task_count, std::span<const GroupingReport> reports,
                const AccountGrouping& grouping,
                const DataGroupingOptions& options, GroupedData& out) {
  const CellSortedReports sorted =
      sort_reports_by_cell(task_count, reports, grouping);
  const std::size_t* run_begin = sorted.task_begin.data();
  const std::uint32_t* run_group = sorted.group.data();

  // One cell per run of equal group within a task.
  std::size_t cells = 0;
  for (std::size_t j = 0; j < task_count; ++j) {
    for (std::size_t i = run_begin[j]; i < run_begin[j + 1]; ++i) {
      if (i == run_begin[j] || run_group[i] != run_group[i - 1]) ++cells;
    }
  }

  out.task_begin.resize(task_count + 1);
  out.group.resize(cells);
  out.value.resize(cells);
  out.initial_weight.resize(cells);
  out.member_count.resize(cells);
  out.group_task_count.assign(grouping.group_count(), 0);
  std::size_t c = 0;
  for (std::size_t j = 0; j < task_count; ++j) {
    out.task_begin[j] = c;
    const std::size_t end = run_begin[j + 1];
    const double submitters = static_cast<double>(end - run_begin[j]);
    for (std::size_t i = run_begin[j]; i < end; ++c) {
      const std::uint32_t k = run_group[i];
      std::size_t run_end = i + 1;
      while (run_end < end && run_group[run_end] == k) ++run_end;
      const std::size_t members = run_end - i;
      out.group[c] = k;
      out.value[c] = aggregate_group_values(
          std::span<const double>(sorted.value.data() + i, members), options);
      out.member_count[c] = static_cast<std::uint32_t>(members);
      out.initial_weight[c] = initial_cell_weight(
          static_cast<double>(options.size_from_task_participants
                                  ? members
                                  : grouping.group(k).size()),
          submitters, options);
      ++out.group_task_count[k];
      i = run_end;
    }
  }
  out.task_begin[task_count] = c;
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
  const auto flat = flatten_reports(input);
  return group_data(input.task_count, flat.span(), grouping, options);
}

}  // namespace sybiltd::core
