// Data grouping: Eqs. (3) and (4) of the framework.
//
// For each task, the reports of each account group collapse into a single
// value, so a Sybil attacker's k duplicate submissions count once.
//
// Eq. (3) as printed,
//     d~ = sum_i (d_i - mean) d_i / sum_i (d_i - mean),
// has a denominator that is identically zero (deviations from the mean sum
// to zero), so it cannot be evaluated literally.  We read it as the
// intended robust intra-group aggregate and implement inverse-deviation
// weighting
//     w_i = 1 / (|d_i - mean| + eps),   d~ = sum w_i d_i / sum w_i,
// which (a) equals the arithmetic mean for symmetric or duplicated values —
// the Sybil case the paper designs for — and (b) leans toward the dense
// mass of the group when a member deviates, which matches the paper's
// stated intent that a mixed legit/Sybil group aggregates "close to the
// average" while suspicious outliers lose influence.  Plain mean and median
// modes are provided for the ablation bench.
//
// Eq. (4) gives each group's *initial* per-task weight
//     w~_k = 1 - |g_k| / |U_j|,
// down-weighting large groups (many accounts, one suspected user).  By
// default |g_k| counts only the group members who reported task j (the
// literal full-group count can exceed |U_j| and go negative; that literal
// mode is kept for the ablation).  Weights are floored at a small epsilon
// so a task covered by a single group still gets a defined initial truth.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/workspace.h"
#include "core/framework_input.h"
#include "core/grouping.h"

namespace sybiltd::core {

enum class GroupAggregate {
  kInverseDeviation,  // default: our reading of Eq. (3)
  kMean,
  kMedian,
  kTrimmedMean,  // drop trim_fraction from each tail
  kHuber,        // Huber M-estimator of location
};

struct DataGroupingOptions {
  GroupAggregate aggregate = GroupAggregate::kInverseDeviation;
  double deviation_epsilon = 1e-6;
  double trim_fraction = 0.2;   // for kTrimmedMean
  double huber_k = 1.345;       // for kHuber
  // Eq. (4): count only group members who reported the task (default) or
  // the literal full group size.
  bool size_from_task_participants = true;
  double weight_floor = 1e-3;
};

// One report of the flat grouping input.  A span of these lists every
// account's reports in account order — the order of FrameworkInput.
struct GroupingReport {
  std::uint32_t account = 0;
  std::uint32_t task = 0;
  double value = 0.0;
};

// The grouped data as one compressed-sparse-row table over tasks.  A cell
// is a (task, group) pair with at least one report; the cells of task j
// are [task_begin[j], task_begin[j + 1]) in ascending group order, so
// `value.data() + task_begin[j]` is task j's contiguous value row for the
// SIMD kernels.  GroupedView is what Eq. (5) and the CRH loop read: the
// same arrays as spans, over a GroupedData or over borrowed storage.
struct GroupedView {
  std::span<const std::size_t> task_begin;      // task_count() + 1 offsets
  std::span<const std::uint32_t> group;         // per cell: group k
  std::span<const double> value;                // per cell: d~_j^k (Eq. 3)
  std::span<const double> initial_weight;       // per cell: Eq. (4) weight
  std::span<const std::uint32_t> group_task_count;  // per group: |T~_k|

  std::size_t task_count() const {
    return task_begin.empty() ? 0 : task_begin.size() - 1;
  }
  std::size_t group_count() const { return group_task_count.size(); }
  std::size_t cell_count() const { return group.size(); }
  std::size_t task_width(std::size_t j) const {
    return task_begin[j + 1] - task_begin[j];
  }
};

// The owning table: GroupedView's arrays as vectors, plus each cell's
// member count, which the streaming shard's patch reads.
struct GroupedData {
  std::vector<std::size_t> task_begin;
  std::vector<std::uint32_t> group;
  std::vector<double> value;
  std::vector<double> initial_weight;
  std::vector<std::uint32_t> member_count;  // per cell: members reporting
  std::vector<std::uint32_t> group_task_count;

  operator GroupedView() const {
    return {task_begin, group, value, initial_weight, group_task_count};
  }
  std::size_t task_count() const {
    return task_begin.empty() ? 0 : task_begin.size() - 1;
  }
  std::size_t group_count() const { return group_task_count.size(); }
  std::size_t cell_count() const { return group.size(); }
  std::size_t task_width(std::size_t j) const {
    return task_begin[j + 1] - task_begin[j];
  }
};

// Aggregate values with the configured intra-group aggregator, for any
// number of values.
double aggregate_group_values_general(std::span<const double> values,
                                      const DataGroupingOptions& options);

// The same.  A one-value cell under the default aggregator (most cells of
// a campaign) is aggregated inline with the general path's operations —
// mean() is Welford's update from zero, then one term of each sum — so
// the result has the same bits.
inline double aggregate_group_values(std::span<const double> values,
                                     const DataGroupingOptions& options) {
  if (values.size() == 1 &&
      options.aggregate == GroupAggregate::kInverseDeviation) {
    const double v = values[0];
    const double mu = 0.0 + (v - 0.0) / 1.0;
    const double w = 1.0 / (std::abs(v - mu) + options.deviation_epsilon);
    return (0.0 + w * v) / (0.0 + w);
  }
  return aggregate_group_values_general(values, options);
}

// Eq. (4) initial weight of a cell: 1 - |g_k| / |U_j|, floored at
// options.weight_floor, where `group_size` is |g_k| in the configured size
// mode and `submitters` is |U_j| (the reports on task j).
inline double initial_cell_weight(double group_size, double submitters,
                                  const DataGroupingOptions& options) {
  return std::max(1.0 - group_size / submitters, options.weight_floor);
}

// --- The cell build (Algorithm 2, lines 2–6) --------------------------------
//
// Every grouped table is built by one walk.  `reports_of(a)` is account
// a's reports, a range of items with `.task` and `.value`, in the order
// that account submitted them.  count_task_rows sizes one row per task;
// scatter_task_rows then walks the groups in ascending order, each group's
// members in ascending order and each member's reports in order, and
// appends every report's (group, value) to its task's row.  A row is
// therefore runs of equal group in ascending group order, each run in
// input order: the cells before aggregation.  aggregate_task_rows then
// folds each run into its cell where the rows lie: cell c never passes
// its run's first report, so it overwrites group[c] and value[c] in
// place.

// Counts the reports of each task into row_begin (task_count + 1 entries)
// and turns the counts into row offsets; returns the report count.
// Throws unless every task is below task_count and fits in 32 bits.
template <typename ReportsOf>
std::size_t count_task_rows(std::size_t task_count,
                            const AccountGrouping& grouping,
                            const ReportsOf& reports_of,
                            std::size_t* row_begin) {
  std::fill(row_begin, row_begin + task_count + 1, std::size_t{0});
  for (std::size_t a = 0; a < grouping.account_count(); ++a) {
    for (const auto& report : reports_of(a)) {
      ++row_begin[checked_task_id(report.task, task_count) + 1];
    }
  }
  for (std::size_t j = 0; j < task_count; ++j) row_begin[j + 1] += row_begin[j];
  return row_begin[task_count];
}

// Appends each report's (group, value) to its task's row, in group, then
// member, then report order.  `row_begin` is count_task_rows' output and
// still holds each row's start on return; `group` and `value` have one
// entry per report.
template <typename ReportsOf>
void scatter_task_rows(std::size_t task_count, const AccountGrouping& grouping,
                       const ReportsOf& reports_of, std::size_t* row_begin,
                       std::uint32_t* group, double* value) {
  SYBILTD_CHECK(
      grouping.group_count() <= std::numeric_limits<std::uint32_t>::max(),
      "group ids must fit in 32 bits");
  // Each row_begin[j] advances to the end of row j, the start of row j + 1.
  for (std::size_t k = 0; k < grouping.group_count(); ++k) {
    for (const std::size_t a : grouping.group(k)) {
      for (const auto& report : reports_of(a)) {
        const std::size_t at = row_begin[report.task]++;
        group[at] = static_cast<std::uint32_t>(k);
        value[at] = report.value;
      }
    }
  }
  for (std::size_t j = task_count; j > 0; --j) row_begin[j] = row_begin[j - 1];
  row_begin[0] = 0;
}

// A FrameworkInput's reports scattered into task rows, in storage
// borrowed from the calling thread's workspace: row j is
// [begin[j], begin[j + 1]) of `group` and `value`.  Throws unless the
// grouping covers exactly the input's accounts.
struct TaskRows {
  Workspace::Borrowed<std::size_t> begin;  // task_count + 1 offsets
  Workspace::Borrowed<std::uint32_t> group;
  Workspace::Borrowed<double> value;
};
TaskRows scatter_input_rows(const FrameworkInput& input,
                            const AccountGrouping& grouping);

// The arrays aggregate_task_rows writes.  task_begin, group and value hold
// scatter_task_rows' rows on entry and the table's cells on return;
// initial_weight (and member_count, unless null) have room for one entry
// per report; group_task_count has one per group.
struct CellArrays {
  std::size_t* task_begin = nullptr;
  std::uint32_t* group = nullptr;
  double* value = nullptr;
  double* initial_weight = nullptr;
  std::uint32_t* member_count = nullptr;
  std::uint32_t* group_task_count = nullptr;
};

// Folds each (task, group) run into one cell (Eqs. 3–4) in place; returns
// the cell count.
std::size_t aggregate_task_rows(std::size_t task_count,
                                const AccountGrouping& grouping,
                                const DataGroupingOptions& options,
                                const CellArrays& cells);

// The whole build into `out`, resized in place, so a table reused across
// calls keeps its capacity and a warm call makes no heap allocation.
template <typename ReportsOf>
void group_account_reports(std::size_t task_count,
                           const AccountGrouping& grouping,
                           const ReportsOf& reports_of,
                           const DataGroupingOptions& options,
                           GroupedData& out) {
  out.task_begin.resize(task_count + 1);
  const std::size_t n = count_task_rows(task_count, grouping, reports_of,
                                        out.task_begin.data());
  out.group.resize(n);
  out.value.resize(n);
  out.initial_weight.resize(n);
  out.member_count.resize(n);
  out.group_task_count.resize(grouping.group_count());
  scatter_task_rows(task_count, grouping, reports_of, out.task_begin.data(),
                    out.group.data(), out.value.data());
  const std::size_t cells = aggregate_task_rows(
      task_count, grouping, options,
      {out.task_begin.data(), out.group.data(), out.value.data(),
       out.initial_weight.data(), out.member_count.data(),
       out.group_task_count.data()});
  out.group.resize(cells);
  out.value.resize(cells);
  out.initial_weight.resize(cells);
  out.member_count.resize(cells);
}

// The build over flat reports listed in account order (throws otherwise),
// into a reused table.
void group_data(std::size_t task_count, std::span<const GroupingReport> reports,
                const AccountGrouping& grouping,
                const DataGroupingOptions& options, GroupedData& out);

// The same into a fresh table.
GroupedData group_data(std::size_t task_count,
                       std::span<const GroupingReport> reports,
                       const AccountGrouping& grouping,
                       const DataGroupingOptions& options = {});

// The build over a FrameworkInput's accounts, into a fresh table.
GroupedData group_data(const FrameworkInput& input,
                       const AccountGrouping& grouping,
                       const DataGroupingOptions& options = {});

}  // namespace sybiltd::core
