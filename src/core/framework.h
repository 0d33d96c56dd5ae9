// The Sybil-resistant truth discovery framework (Algorithm 2).
//
//   1. Account grouping (AG-FP / AG-TS / AG-TR — any AccountGrouper).
//   2. Data grouping: per task, collapse each group's reports into one
//      value d~_j^k (Eq. 3) and seed group weights by size (Eq. 4).
//   3. Initialize truths with the Eq. (5) size-weighted aggregate.
//   4. Iterate CRH-style group-weight estimation (line 10: W over the
//      group's aggregated residuals) and truth estimation (line 13) until
//      convergence.
//
// The instantiation of W and D follows our CRH baseline (std-normalized
// squared loss, log-ratio weights), so CRH and the framework differ only
// in the grouping — exactly the comparison the paper's Fig. 7 makes.
#pragma once

#include <memory>
#include <span>

#include "core/data_grouping.h"
#include "core/grouping.h"
#include "truth/truth_discovery.h"

namespace sybiltd::core {

struct FrameworkOptions {
  DataGroupingOptions data_grouping;
  truth::ConvergenceOptions convergence;
  double loss_epsilon = 1e-6;
  // Ablation: skip the Eq. (5) initialization and start from the plain
  // per-task mean of the group aggregates instead.
  bool init_with_eq5 = true;
};

struct FrameworkResult {
  std::vector<double> truths;        // per task; NaN if no data
  std::vector<double> group_weights; // final iterated weights, per group
  AccountGrouping grouping;
  std::size_t iterations = 0;
  bool converged = false;
  // Max absolute truth change of the last iteration — the quantity the
  // convergence test compares against truth_tolerance.
  double final_residual = 0.0;
  // Shannon entropy (nats) of the normalized group-weight distribution.
  // Near log(#groups) the groups are indistinguishable; near 0 one group
  // dominates — i.e. the framework has singled out the trusted cluster.
  double weight_entropy = 0.0;
};

// Entropy of the weight vector viewed as a distribution (weights are
// normalized by their sum; non-positive weights contribute nothing).
// Returns 0 for an empty or all-zero vector.
double group_weight_entropy(std::span<const double> weights);

// Run Algorithm 2 with a precomputed grouping (steps 2–5).
FrameworkResult run_framework(const FrameworkInput& input,
                              const AccountGrouping& grouping,
                              const FrameworkOptions& options = {});

// Steps 3–5 on grouped data already built under `grouping`.  The overload
// above builds its cells in workspace storage and calls this; the
// streaming drain calls it on the table its campaign keeps.
FrameworkResult run_framework(const GroupedView& grouped,
                              const AccountGrouping& grouping,
                              const FrameworkOptions& options = {});

// Run the full pipeline: grouping method + framework.
FrameworkResult run_framework(const FrameworkInput& input,
                              const AccountGrouper& grouper,
                              const FrameworkOptions& options = {});

// --- Iteration primitives -------------------------------------------------
//
// run_framework is composed of the three steps below.  They are exposed so
// the streaming pipeline (src/pipeline) can warm-start a few iterations per
// micro-batch while sharing the exact arithmetic of the batch path; with
// identical grouped data the incremental and batch computations therefore
// agree to the last bit.

// Per-task scale normalizers over the grouped values (the std-normalized
// loss denominator); 1 where fewer than two values or a degenerate spread.
std::vector<double> framework_task_normalizers(const GroupedView& grouped,
                                               std::size_t task_count);
// The normalizers of the listed tasks alone, written to norm[j] (the same
// arithmetic, eight tasks at a time).
void framework_task_normalizers(const GroupedView& grouped,
                                std::span<const std::uint32_t> tasks,
                                std::span<double> norm);

// Initial truths: Eq. (5) with the Eq. (4) size weights, or the plain mean
// of the group aggregates when init_with_eq5 is false.  NaN for tasks with
// no data.
std::vector<double> framework_initial_truths(const GroupedView& grouped,
                                             std::size_t task_count,
                                             bool init_with_eq5);
// The initial truth of task j alone (the same arithmetic).
double framework_initial_truth(const GroupedView& grouped, std::size_t j,
                               bool init_with_eq5);

// One Algorithm-2 iteration (lines 8–15): group-weight estimation over the
// aggregated residuals, then truth re-estimation.  Updates `truths` and
// `group_weights` in place and returns the max absolute truth change.
double framework_iterate_once(const GroupedView& grouped,
                              const std::vector<double>& normalizers,
                              double loss_epsilon, std::vector<double>& truths,
                              std::vector<double>& group_weights);

}  // namespace sybiltd::core
