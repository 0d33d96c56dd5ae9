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
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

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
// SIMD kernels.
struct GroupedData {
  std::vector<std::size_t> task_begin;      // task_count() + 1 offsets
  std::vector<std::uint32_t> group;         // per cell: group k
  std::vector<double> value;                // per cell: d~_j^k (Eq. 3)
  std::vector<double> initial_weight;       // per cell: Eq. (4) weight
  std::vector<std::uint32_t> member_count;  // per cell: members reporting
  std::vector<std::uint32_t> group_task_count;  // per group: |T~_k|

  std::size_t task_count() const {
    return task_begin.empty() ? 0 : task_begin.size() - 1;
  }
  std::size_t group_count() const { return group_task_count.size(); }
  std::size_t cell_count() const { return group.size(); }
  std::size_t task_width(std::size_t j) const {
    return task_begin[j + 1] - task_begin[j];
  }
};

// Aggregate values with the configured intra-group aggregator.
double aggregate_group_values(std::span<const double> values,
                              const DataGroupingOptions& options);

// The reports of `input` in account order, as the flat grouping input.
// Checks that every task is below input.task_count and that ids fit in 32
// bits.  Storage is borrowed from the calling thread's workspace.
Workspace::Borrowed<GroupingReport> flatten_reports(const FrameworkInput& input);

// Reports reordered by (task, group), each (task, group) run in input
// order: the cells of Algorithm 2, lines 2–6, before aggregation.  Built by
// two stable counting sorts (by group, then by task) in O(reports + tasks
// + groups); storage is borrowed from the calling thread's workspace.
struct CellSortedReports {
  Workspace::Borrowed<std::size_t> task_begin;  // task_count + 1 offsets
  Workspace::Borrowed<std::uint32_t> group;
  Workspace::Borrowed<double> value;
};
CellSortedReports sort_reports_by_cell(std::size_t task_count,
                                       std::span<const GroupingReport> reports,
                                       const AccountGrouping& grouping);

// Eq. (4) initial weight of a cell: 1 - |g_k| / |U_j|, floored at
// options.weight_floor, where `group_size` is |g_k| in the configured size
// mode and `submitters` is |U_j| (the reports on task j).
inline double initial_cell_weight(double group_size, double submitters,
                                  const DataGroupingOptions& options) {
  return std::max(1.0 - group_size / submitters, options.weight_floor);
}

// Build the grouped view of the reports under a grouping (Algorithm 2,
// lines 2–6) into `out`.  Each cell's values are aggregated in input order.
// Every array of `out` is resized in place, so a table reused across calls
// keeps its capacity and a warm call makes no heap allocation.
void group_data(std::size_t task_count, std::span<const GroupingReport> reports,
                const AccountGrouping& grouping,
                const DataGroupingOptions& options, GroupedData& out);

// The same into a fresh table.
GroupedData group_data(std::size_t task_count,
                       std::span<const GroupingReport> reports,
                       const AccountGrouping& grouping,
                       const DataGroupingOptions& options = {});

// The same over a FrameworkInput (flattened with flatten_reports).
GroupedData group_data(const FrameworkInput& input,
                       const AccountGrouping& grouping,
                       const DataGroupingOptions& options = {});

}  // namespace sybiltd::core
