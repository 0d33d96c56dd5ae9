#include "core/framework.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"
#include "common/stats.h"
#include "common/workspace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/simd.h"

namespace sybiltd::core {

using truth::nan_value;

namespace {

// Convergence telemetry: every run_framework call — batch evaluation or a
// pipeline drain — lands in these distributions, so obs::snapshot() shows
// how hard the CRH iteration is working across the whole process.
struct FrameworkMetrics {
  obs::Counter& runs = obs::MetricsRegistry::global().counter(
      "framework.runs", "run_framework invocations");
  obs::Counter& converged_runs = obs::MetricsRegistry::global().counter(
      "framework.converged_runs", "runs that met the truth tolerance");
  obs::Histogram& iterations = obs::MetricsRegistry::global().histogram(
      "framework.iterations", "CRH iterations per run");
  obs::Histogram& final_residual = obs::MetricsRegistry::global().histogram(
      "framework.final_residual", "max truth change of the last iteration");
  obs::Histogram& weight_entropy = obs::MetricsRegistry::global().histogram(
      "framework.weight_entropy", "entropy of the final group weights");

  static FrameworkMetrics& get() {
    static FrameworkMetrics metrics;
    return metrics;
  }
};

}  // namespace

double group_weight_entropy(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) total += w;
  }
  if (total <= 0.0) return 0.0;
  double entropy = 0.0;
  for (double w : weights) {
    if (w <= 0.0) continue;
    const double p = w / total;
    entropy -= p * std::log(p);
  }
  return entropy;
}

// Per-task scale normalizers over the *grouped* values, mirroring the CRH
// baseline's std-normalized loss: 1 where fewer than two values or a
// degenerate spread.  Each task's values are already one contiguous row,
// so no copy.
void framework_task_normalizers(const GroupedView& grouped,
                                std::span<const std::uint32_t> tasks,
                                std::span<double> norm) {
  const auto row = [&](std::size_t j) {
    return std::span<const double>(grouped.value.data() + grouped.task_begin[j],
                                   grouped.task_width(j));
  };
  for (std::size_t t = 0; t < tasks.size(); t += 8) {
    std::span<const double> rows[8];
    for (std::size_t l = 0; l < 8 && t + l < tasks.size(); ++l) {
      rows[l] = row(tasks[t + l]);
    }
    double sd[8];
    stddev8(rows, sd);
    for (std::size_t l = 0; l < 8 && t + l < tasks.size(); ++l) {
      norm[tasks[t + l]] = rows[l].size() >= 2 && sd[l] > 1e-12 ? sd[l] : 1.0;
    }
  }
}

std::vector<double> framework_task_normalizers(const GroupedView& grouped,
                                               std::size_t task_count) {
  SYBILTD_CHECK(grouped.task_count() == task_count,
                "grouped data does not match the task count");
  auto tasks = Workspace::local().borrow<std::uint32_t>(task_count);
  std::iota(tasks.begin(), tasks.end(), std::uint32_t{0});
  std::vector<double> norm(task_count);
  framework_task_normalizers(grouped, tasks.span(), norm);
  return norm;
}

double framework_initial_truth(const GroupedView& grouped, std::size_t j,
                               bool init_with_eq5) {
  double num = 0.0, den = 0.0;
  for (std::size_t c = grouped.task_begin[j]; c < grouped.task_begin[j + 1];
       ++c) {
    const double w = init_with_eq5 ? grouped.initial_weight[c] : 1.0;
    num += w * grouped.value[c];
    den += w;
  }
  return den > 0.0 ? num / den : nan_value();
}

std::vector<double> framework_initial_truths(const GroupedView& grouped,
                                             std::size_t task_count,
                                             bool init_with_eq5) {
  SYBILTD_CHECK(grouped.task_count() == task_count,
                "grouped data does not match the task count");
  std::vector<double> truths(task_count);
  for (std::size_t j = 0; j < task_count; ++j) {
    truths[j] = framework_initial_truth(grouped, j, init_with_eq5);
  }
  return truths;
}

double framework_iterate_once(const GroupedView& grouped,
                              const std::vector<double>& normalizers,
                              double loss_epsilon, std::vector<double>& truths,
                              std::vector<double>& group_weights) {
  const std::size_t n_tasks = grouped.task_count();
  const std::size_t n_groups = grouped.group_count();
  SYBILTD_CHECK(truths.size() == n_tasks,
                "truth vector does not match the grouped data");
  SYBILTD_CHECK(normalizers.size() == n_tasks,
                "normalizers do not match the grouped data");

  const auto& kernels = simd::kernels();
  const double* values = grouped.value.data();
  const std::uint32_t* groups = grouped.group.data();
  std::size_t max_task_width = 0;
  for (std::size_t j = 0; j < n_tasks; ++j) {
    max_task_width = std::max(max_task_width, grouped.task_width(j));
  }

  // Group weight estimation: W over the group's aggregated residuals.
  // Per-iteration scratch comes from the per-thread workspace, so a warm
  // iteration performs zero heap allocations.  The residual squares of a
  // task are one kernel call; the scatter-add into the group slots stays
  // serial and in the original order, so the losses are bit-identical to
  // the fused loop at every dispatch level.
  auto losses_storage = Workspace::local().borrow<double>(n_groups);
  auto residual_storage = Workspace::local().borrow<double>(max_task_width);
  double* residuals = residual_storage.data();
  std::span<double> losses = losses_storage.span();
  std::fill(losses.begin(), losses.end(), 0.0);
  double total_loss = 0.0;
  for (std::size_t j = 0; j < n_tasks; ++j) {
    if (std::isnan(truths[j])) continue;
    const std::size_t begin = grouped.task_begin[j];
    const std::size_t width = grouped.task_width(j);
    kernels.residual_sq(values + begin, width, truths[j], normalizers[j],
                        residuals);
    for (std::size_t i = 0; i < width; ++i) {
      losses[groups[begin + i]] += residuals[i];
    }
  }
  for (std::size_t k = 0; k < n_groups; ++k) {
    if (grouped.group_task_count[k] == 0) {
      losses[k] = 0.0;
      continue;
    }
    losses[k] = std::max(losses[k], loss_epsilon);
    total_loss += losses[k];
  }
  group_weights.assign(n_groups, 0.0);
  for (std::size_t k = 0; k < n_groups; ++k) {
    if (grouped.group_task_count[k] == 0) {
      group_weights[k] = 0.0;
    } else {
      group_weights[k] = std::log(total_loss / losses[k]);
      if (group_weights[k] <= 0.0) group_weights[k] = 1.0;
    }
  }

  // Truth estimation over groups: per-task weighted sums via the gather
  // kernel (scalar level is the original serial loop; vector levels use
  // the fixed 4-lane tree), then one elementwise guarded divide.
  auto num_storage = Workspace::local().borrow<double>(n_tasks);
  auto den_storage = Workspace::local().borrow<double>(n_tasks);
  auto next_storage = Workspace::local().borrow<double>(n_tasks);
  double* num = num_storage.data();
  double* den = den_storage.data();
  std::span<double> next_truths = next_storage.span();
  for (std::size_t j = 0; j < n_tasks; ++j) {
    const std::size_t begin = grouped.task_begin[j];
    kernels.weighted_sum_gather(values + begin, groups + begin,
                                group_weights.data(), grouped.task_width(j),
                                &num[j], &den[j]);
  }
  kernels.safe_divide(num, den, n_tasks, next_truths.data());

  const double delta =
      kernels.max_abs_diff(truths.data(), next_truths.data(), n_tasks);
  std::copy(next_truths.begin(), next_truths.end(), truths.begin());
  return delta;
}

FrameworkResult run_framework(const FrameworkInput& input,
                              const AccountGrouping& grouping,
                              const FrameworkOptions& options) {
  // The cells are built where the reports are scattered, in buffers
  // borrowed from the workspace, so a warm call allocates no table.
  const TaskRows rows = scatter_input_rows(input, grouping);
  Workspace& workspace = Workspace::local();
  auto weight = workspace.borrow<double>(rows.value.size());
  auto group_task_count =
      workspace.borrow<std::uint32_t>(grouping.group_count());
  const std::size_t cells = aggregate_task_rows(
      input.task_count, grouping, options.data_grouping,
      {rows.begin.data(), rows.group.data(), rows.value.data(), weight.data(),
       nullptr, group_task_count.data()});
  const GroupedView grouped{rows.begin.span(),
                            {rows.group.data(), cells},
                            {rows.value.data(), cells},
                            {weight.data(), cells},
                            group_task_count.span()};
  return run_framework(grouped, grouping, options);
}

FrameworkResult run_framework(const GroupedView& grouped,
                              const AccountGrouping& grouping,
                              const FrameworkOptions& options) {
  obs::TraceSpan run_span("framework/run");
  const std::size_t n_tasks = grouped.task_count();

  FrameworkResult result;
  result.grouping = grouping;
  result.group_weights.assign(grouping.group_count(), 1.0);

  const std::vector<double> norm = framework_task_normalizers(grouped, n_tasks);

  // --- Initialization (Eq. 5 with the Eq. 4 weights) ----------------------
  result.truths =
      framework_initial_truths(grouped, n_tasks, options.init_with_eq5);

  // --- Iterations (Algorithm 2, lines 8–15) -------------------------------
  for (std::size_t iter = 0; iter < options.convergence.max_iterations;
       ++iter) {
    result.iterations = iter + 1;
    obs::TraceSpan iterate_span("framework/iterate");
    iterate_span.arg("iteration", static_cast<double>(iter + 1));
    const double delta =
        framework_iterate_once(grouped, norm, options.loss_epsilon,
                               result.truths, result.group_weights);
    result.final_residual = delta;
    if (delta < options.convergence.truth_tolerance) {
      result.converged = true;
      break;
    }
  }
  result.weight_entropy = group_weight_entropy(result.group_weights);

  auto& metrics = FrameworkMetrics::get();
  metrics.runs.inc();
  if (result.converged) metrics.converged_runs.inc();
  metrics.iterations.record(static_cast<double>(result.iterations));
  metrics.final_residual.record(result.final_residual);
  metrics.weight_entropy.record(result.weight_entropy);
  run_span.arg("iterations", static_cast<double>(result.iterations));
  run_span.arg("converged", result.converged ? 1.0 : 0.0);
  return result;
}

FrameworkResult run_framework(const FrameworkInput& input,
                              const AccountGrouper& grouper,
                              const FrameworkOptions& options) {
  return run_framework(input, grouper.group(input), options);
}

}  // namespace sybiltd::core
