#include "core/ag_ts.h"

#include <algorithm>
#include <vector>

#include "candidate/blocking.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "graph/union_find.h"
#include "obs/metrics.h"

namespace sybiltd::core {

namespace {

// Registry mirror of the AG-TS evaluation counters.
struct AgTsMetrics {
  obs::Counter& pairs = obs::MetricsRegistry::global().counter(
      "agts.pairs", "unordered account pairs considered by AG-TS");
  obs::Counter& dense_groupings = obs::MetricsRegistry::global().counter(
      "agts.dense_groupings", "group() runs on the dense matrix path");
  obs::Counter& sparse_groupings = obs::MetricsRegistry::global().counter(
      "agts.sparse_groupings", "group() runs on the sparse set-join path");
  obs::Counter& join_collapsed = obs::MetricsRegistry::global().counter(
      "agts.join.collapsed",
      "accounts folded behind an identical-set representative");
  obs::Counter& join_candidates = obs::MetricsRegistry::global().counter(
      "agts.join.candidates",
      "posting entries tested by the set-join verify kernel");
  obs::Counter& join_edges = obs::MetricsRegistry::global().counter(
      "agts.join.edges", "spanning edges emitted by the set join");

  static AgTsMetrics& get() {
    static AgTsMetrics metrics;
    return metrics;
  }
};

}  // namespace

double AgTs::affinity(std::size_t both, std::size_t alone,
                      std::size_t task_count) {
  SYBILTD_CHECK(task_count > 0, "affinity needs a positive task count");
  const double t = static_cast<double>(both);
  const double l = static_cast<double>(alone);
  const double m = static_cast<double>(task_count);
  return (t - 2.0 * l) * (t + l) / m;
}

std::vector<std::vector<double>> AgTs::affinity_matrix(
    const FrameworkInput& input) {
  const std::size_t n = input.accounts.size();
  // Task membership bitmaps per account.
  std::vector<std::vector<bool>> done(
      n, std::vector<bool>(input.task_count, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& report : input.accounts[i].reports) {
      SYBILTD_CHECK(report.task < input.task_count,
                    "report task out of range");
      done[i][report.task] = true;
    }
  }
  std::vector<std::vector<double>> affinity_values(
      n, std::vector<double>(n, 0.0));
  // Each unordered pair owns its two mirror cells, so the parallel writes
  // are disjoint and the matrix is identical at every thread count.
  parallel_pairwise(n, [&](std::size_t i, std::size_t j) {
    std::size_t both = 0;
    std::size_t alone = 0;
    for (std::size_t t = 0; t < input.task_count; ++t) {
      if (done[i][t] && done[j][t]) {
        ++both;
      } else if (done[i][t] != done[j][t]) {
        ++alone;
      }
    }
    const double a = affinity(both, alone, input.task_count);
    affinity_values[i][j] = a;
    affinity_values[j][i] = a;
  });
  return affinity_values;
}

candidate::TaskSetTable AgTs::task_sets(const FrameworkInput& input) {
  const std::size_t n = input.accounts.size();
  std::size_t total = 0;
  for (const auto& account : input.accounts) total += account.reports.size();
  candidate::TaskSetTable sets;
  sets.offset.resize(n + 1);
  sets.task.resize(total);
  std::uint32_t* const tasks = sets.task.data();
  std::size_t at = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t begin = at;
    for (const auto& report : input.accounts[i].reports) {
      tasks[at++] = checked_task_id(report.task, input.task_count);
    }
    std::sort(tasks + begin, tasks + at);
    at = static_cast<std::size_t>(std::unique(tasks + begin, tasks + at) -
                                  tasks);
    sets.offset[i + 1] = at;
  }
  sets.task.resize(at);
  return sets;
}

AccountGrouping AgTs::group(const FrameworkInput& input) const {
  return group_with_stats(input, nullptr);
}

AccountGrouping AgTs::group_with_stats(const FrameworkInput& input,
                                       AgTsStats* stats) const {
  const std::size_t n = input.accounts.size();
  if (stats != nullptr) *stats = AgTsStats{};
  if (n == 0) return AccountGrouping::singletons(0);
  const double rho = options_.rho;
  auto& metrics = AgTsMetrics::get();
  metrics.pairs.inc(ThreadPool::pair_count(n));
  if (stats != nullptr) stats->pairs = ThreadPool::pair_count(n);

  // The sparse join's candidate generation leans on the necessity
  // T > 2L  ⇔  Jaccard > 2/3 for a non-negative affinity; a negative rho
  // can admit edges with arbitrarily low Jaccard, so it stays dense.
  if (rho < 0.0) {
    metrics.dense_groupings.inc();
    const auto affinities = affinity_matrix(input);
    graph::UnionFind uf(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (affinities[i][j] > rho) uf.unite(i, j);
      }
    }
    return AccountGrouping::from_labels(uf.labels());
  }

  metrics.sparse_groupings.inc();
  const std::size_t m = input.task_count;
  candidate::SetJoinStats join_stats;
  const std::vector<std::uint64_t> edges = candidate::sparse_affinity_edges(
      task_sets(input),
      [rho, m](std::size_t both, std::size_t alone) {
        return affinity(both, alone, m) > rho;
      },
      &join_stats);
  metrics.join_collapsed.inc(join_stats.collapsed);
  metrics.join_candidates.inc(join_stats.candidates);
  metrics.join_edges.inc(join_stats.edges);
  if (stats != nullptr) {
    stats->sparse = true;
    stats->join = join_stats;
  }
  graph::UnionFind uf(n);
  for (std::uint64_t packed : edges) {
    uf.unite(candidate::pair_first(packed), candidate::pair_second(packed));
  }
  return AccountGrouping::from_labels(uf.labels());
}

}  // namespace sybiltd::core
