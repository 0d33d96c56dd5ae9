// Extension bench: grouping at campaign scale (10^4 .. 10^6 accounts).
//
// The paper's experiment has 18 accounts; this bench measures the
// sub-quadratic production groupers (built on src/candidate/) against
// bench-local all-pairs oracles:
//
//   AG-TR   AgTr(): endpoint-slab blocking + bound cascade        vs  every
//           pair, skipped only when the endpoint bound reaches phi,
//           otherwise exact DTW,
//   AG-TS   AgTs(): signature collapse + exact prefix join         vs  an
//           exact bitset-popcount sweep over every pair.
//
// Both production paths are exact by proof (docs/GROUPING.md), so recall
// against the oracle's grouping must be 1.0; it is checked next to the
// speedup, and the funnel fractions show where pairs die.  Oracles only
// run up to --all-pairs-cap accounts (default 10^5) — beyond that the
// quadratic sweep is the point being made.
//
// Modes:
//   scalability [sizes...]          human tables (default 10000 100000)
//   scalability --json [sizes...]   google-benchmark JSON for
//                                   bench/compare_bench.py (BENCH_grouping)
//   scalability --smoke [n]         CI gate: AG-TR prunes > 90% of pairs
//                                   and recall == 1.0 at n (5000)
//   scalability --strategies [max]  AgTr() against the AG-TR oracle on
//                                   small Attack-I scenarios; exits 1 on
//                                   any grouping mismatch
//   scalability --all-pairs-cap N   largest n that runs the oracles
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/table.h"
#include "core/ag_tr.h"
#include "core/ag_ts.h"
#include "core/framework.h"
#include "dtw/dtw.h"
#include "eval/adapters.h"
#include "graph/union_find.h"
#include "grouping_scenario.h"
#include "mcs/scenario.h"
#include "simd/simd.h"

using namespace sybiltd;
using sybiltd::bench::make_grouping_input;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ---------------------------------------------------------------------------
// Pairwise recall of partition `got` against partition `want`: of the
// account pairs `want` groups together, the fraction `got` also groups
// together.  O(n) via the contingency table; 1.0 when `want` has no
// positive pairs.

double pair_recall(const std::vector<std::size_t>& want,
                   const std::vector<std::size_t>& got) {
  std::unordered_map<std::size_t, std::size_t> want_sizes;
  std::unordered_map<std::uint64_t, std::size_t> cell_sizes;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ++want_sizes[want[i]];
    ++cell_sizes[(static_cast<std::uint64_t>(want[i]) << 32) |
                 static_cast<std::uint32_t>(got[i])];
  }
  double positives = 0.0;
  for (const auto& [label, size] : want_sizes) {
    positives += 0.5 * static_cast<double>(size) *
                 static_cast<double>(size - 1);
  }
  if (positives == 0.0) return 1.0;
  double hits = 0.0;
  for (const auto& [cell, size] : cell_sizes) {
    hits += 0.5 * static_cast<double>(size) * static_cast<double>(size - 1);
  }
  return hits / positives;
}

// ---------------------------------------------------------------------------
// Exact AG-TS reference that never materializes the n x n matrix: per
// account a task bitset, then a popcount sweep over every pair straight
// into a union-find.  Same partition as core::AgTs's dense path, at a
// memory cost of n * m / 8 bytes instead of 8 n^2.

std::vector<std::size_t> agts_exact_labels(const core::FrameworkInput& input,
                                           double rho) {
  const std::size_t n = input.accounts.size();
  const std::size_t words = (input.task_count + 63) / 64;
  std::vector<std::uint64_t> bits(n * words, 0);
  std::vector<std::uint32_t> sizes(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& report : input.accounts[i].reports) {
      std::uint64_t& word = bits[i * words + report.task / 64];
      const std::uint64_t mask = 1uLL << (report.task % 64);
      if ((word & mask) == 0) {
        word |= mask;
        ++sizes[i];
      }
    }
  }
  graph::UnionFind uf(n);
  const auto m = static_cast<double>(input.task_count);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t* a = &bits[i * words];
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::uint64_t* b = &bits[j * words];
      std::size_t both = 0;
      for (std::size_t w = 0; w < words; ++w) {
        both += static_cast<std::size_t>(__builtin_popcountll(a[w] & b[w]));
      }
      const std::size_t alone = sizes[i] + sizes[j] - 2 * both;
      const double t = static_cast<double>(both);
      const double l = static_cast<double>(alone);
      if ((t - 2.0 * l) * (t + l) / m > rho) uf.unite(i, j);
    }
  }
  return uf.labels();
}

// All-pairs AG-TR oracle: every pair of non-empty trajectories is skipped
// only when the endpoint bound (first/last alignment) already reaches phi,
// and otherwise decided by the exact total-cost DTW of both series — no
// blocking grid, no envelope or LB_Keogh stage, no early abandon.  Same
// partition as core::AgTr with default options.

std::vector<std::size_t> agtr_oracle_labels(const core::FrameworkInput& input,
                                            double phi) {
  const std::size_t n = input.accounts.size();
  std::vector<std::vector<double>> xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = core::AgTr::task_series(input.accounts[i]);
    ys[i] = core::AgTr::timestamp_series(input.accounts[i]);
  }
  graph::UnionFind uf(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (xs[i].empty()) continue;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (xs[j].empty()) continue;
      if (dtw::endpoint_lower_bound(xs[i], xs[j]) +
              dtw::endpoint_lower_bound(ys[i], ys[j]) >=
          phi) {
        continue;
      }
      if (dtw::dtw_total_cost(xs[i], xs[j]) +
              dtw::dtw_total_cost(ys[i], ys[j]) <
          phi) {
        uf.unite(i, j);
      }
    }
  }
  return uf.labels();
}

// ---------------------------------------------------------------------------
// Per-size measurements.

struct AgTrRun {
  double candidate_s = 0.0;
  double all_pairs_s = -1.0;  // < 0: oracle skipped
  double recall = -1.0;       // < 0: unmeasured (no oracle)
  core::AgTrStats stats;
};

struct AgTsRun {
  double sparse_s = 0.0;
  double exact_s = -1.0;
  double recall = -1.0;
  core::AgTsStats stats;
};

AgTrRun run_agtr(const core::FrameworkInput& input, bool with_baseline) {
  AgTrRun run;
  auto t0 = std::chrono::steady_clock::now();
  const auto grouping = core::AgTr().group_with_stats(input, &run.stats);
  run.candidate_s = seconds_since(t0);
  if (!with_baseline) return run;

  t0 = std::chrono::steady_clock::now();
  const auto exact = agtr_oracle_labels(input, core::AgTrOptions{}.phi);
  run.all_pairs_s = seconds_since(t0);
  run.recall = pair_recall(exact, grouping.labels());
  return run;
}

AgTsRun run_agts(const core::FrameworkInput& input, double rho,
                 bool with_baseline) {
  AgTsRun run;
  core::AgTsOptions options;
  options.rho = rho;
  auto t0 = std::chrono::steady_clock::now();
  const auto sparse = core::AgTs(options).group_with_stats(input, &run.stats);
  run.sparse_s = seconds_since(t0);
  if (!with_baseline) return run;

  t0 = std::chrono::steady_clock::now();
  const auto exact = agts_exact_labels(input, rho);
  run.exact_s = seconds_since(t0);
  run.recall = pair_recall(exact, sparse.labels());
  return run;
}

// The first "model name" of /proc/cpuinfo, or "unknown".
std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

std::string cell_or_dash(double v, int precision) {
  return v < 0 ? "-" : format_cell(v, precision);
}

// ---------------------------------------------------------------------------
// Modes.

// AG-TS edge threshold used throughout: rho = 0 keeps the paper's Eq. (6)
// rule "positive affinity" (intersection dominates symmetric difference),
// which is scale-free in m — a fixed positive rho would stop firing as the
// task count grows with n.
constexpr double kRho = 0.0;

int run_grouping(const std::vector<std::size_t>& sizes, bool json,
                 std::size_t all_pairs_cap) {
  if (!json) {
    std::printf("=== Extension: sub-quadratic grouping (10%% Sybil accounts "
                "in groups of 5, m = n/250 tasks) ===\n\n");
  }
  TextTable agtr_table({"accounts", "AgTr() s", "oracle s", "speedup",
                        "recall", "blocked %", "cascade-pruned %",
                        "exact DTW pairs"});
  TextTable agts_table({"accounts", "AgTs() s", "oracle s", "speedup",
                        "recall", "collapsed", "verified pairs", "edges"});
  std::string benchmarks;  // JSON entries
  char buf[512];

  for (const std::size_t n : sizes) {
    const auto scenario = make_grouping_input(n, 20'000 + n);
    const auto& input = scenario.input;
    const bool baseline = n <= all_pairs_cap;
    const double pairs = 0.5 * static_cast<double>(n) *
                         static_cast<double>(n - 1);

    const AgTrRun tr = run_agtr(input, baseline);
    const double blocked_frac =
        static_cast<double>(tr.stats.blocked) / pairs;
    const double cascade_frac =
        static_cast<double>(tr.stats.lb_pruned + tr.stats.task_abandoned) /
        pairs;
    agtr_table.add_row(
        {std::to_string(n), format_cell(tr.candidate_s, 2),
         cell_or_dash(tr.all_pairs_s, 2),
         tr.all_pairs_s < 0
             ? "-"
             : format_cell(tr.all_pairs_s / tr.candidate_s, 1) + "x",
         cell_or_dash(tr.recall, 4), format_cell(100.0 * blocked_frac, 3),
         format_cell(100.0 * cascade_frac, 4),
         std::to_string(tr.stats.exact_pairs)});

    const AgTsRun ts = run_agts(input, kRho, baseline);
    agts_table.add_row(
        {std::to_string(n), format_cell(ts.sparse_s, 2),
         cell_or_dash(ts.exact_s, 2),
         ts.exact_s < 0 ? "-"
                        : format_cell(ts.exact_s / ts.sparse_s, 1) + "x",
         cell_or_dash(ts.recall, 4), std::to_string(ts.stats.join.collapsed),
         std::to_string(ts.stats.join.candidates),
         std::to_string(ts.stats.join.edges)});

    if (json) {
      std::snprintf(
          buf, sizeof buf,
          "    {\"name\": \"BM_AgTrCandidates/%zu\", \"run_type\": "
          "\"iteration\", \"real_time\": %.3f, \"cpu_time\": %.3f, "
          "\"time_unit\": \"ms\", \"recall\": %.6f, \"blocked_frac\": "
          "%.6f, \"cascade_pruned_frac\": %.6f, \"exact_dtw_pairs\": %zu},\n",
          n, 1e3 * tr.candidate_s, 1e3 * tr.candidate_s, tr.recall,
          blocked_frac, cascade_frac, tr.stats.exact_pairs);
      benchmarks += buf;
      if (tr.all_pairs_s >= 0) {
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"BM_AgTrAllPairs/%zu\", \"run_type\": "
                      "\"iteration\", \"real_time\": %.3f, \"cpu_time\": "
                      "%.3f, \"time_unit\": \"ms\"},\n",
                      n, 1e3 * tr.all_pairs_s, 1e3 * tr.all_pairs_s);
        benchmarks += buf;
      }
      std::snprintf(
          buf, sizeof buf,
          "    {\"name\": \"BM_AgTsSparse/%zu\", \"run_type\": "
          "\"iteration\", \"real_time\": %.3f, \"cpu_time\": %.3f, "
          "\"time_unit\": \"ms\", \"recall\": %.6f, \"collapsed\": %zu, "
          "\"verified_pairs\": %zu, \"edges\": %zu},\n",
          n, 1e3 * ts.sparse_s, 1e3 * ts.sparse_s, ts.recall,
          ts.stats.join.collapsed, ts.stats.join.candidates,
          ts.stats.join.edges);
      benchmarks += buf;
      if (ts.exact_s >= 0) {
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"BM_AgTsExact/%zu\", \"run_type\": "
                      "\"iteration\", \"real_time\": %.3f, \"cpu_time\": "
                      "%.3f, \"time_unit\": \"ms\"},\n",
                      n, 1e3 * ts.exact_s, 1e3 * ts.exact_s);
        benchmarks += buf;
      }
    }
  }

  if (json) {
    if (!benchmarks.empty()) benchmarks.resize(benchmarks.size() - 2);
    std::printf("{\n  \"context\": {\"bench\": \"scalability --json\", "
                "\"rho\": %.1f, \"nproc\": %u, \"cpu_model\": \"%s\", "
                "\"simd_level\": \"%s\", \"build_type\": \"%s\"},\n"
                "  \"benchmarks\": [\n%s\n  ]\n}\n",
                kRho, std::thread::hardware_concurrency(), cpu_model().c_str(),
                std::string(simd::level_name(simd::active_level())).c_str(),
                SYBILTD_BUILD_TYPE, benchmarks.c_str());
    return 0;
  }
  std::printf("AG-TR: endpoint-slab blocking + bound cascade vs "
              "the all-pairs\noracle (endpoint bound, then exact DTW).  "
              "Recall is pairwise against the\noracle's grouping (1.0 "
              "expected: the production path is provably exact).\n\n%s\n",
              agtr_table.render().c_str());
  std::printf("AG-TS: signature collapse + exact prefix join vs an exact "
              "bitset-popcount\nsweep (rho = %.1f).  Verified pairs are the "
              "posting entries the join's\nverify kernel tested.\n\n%s",
              kRho, agts_table.render().c_str());
  return 0;
}

int run_smoke(std::size_t n) {
  std::printf("smoke: n = %zu\n", n);
  const auto scenario = make_grouping_input(n, 20'000 + n);
  const double pairs = 0.5 * static_cast<double>(n) *
                       static_cast<double>(n - 1);
  const AgTrRun tr = run_agtr(scenario.input, /*with_baseline=*/true);
  const double pruned_frac =
      static_cast<double>(tr.stats.blocked + tr.stats.lb_pruned +
                          tr.stats.task_abandoned) /
      pairs;
  std::printf("  agtr: %.2fs AgTr() vs %.2fs oracle, recall %.4f, "
              "%.2f%% of pairs pruned before exact DTW\n",
              tr.candidate_s, tr.all_pairs_s, tr.recall,
              100.0 * pruned_frac);
  const AgTsRun ts = run_agts(scenario.input, kRho, /*with_baseline=*/true);
  std::printf("  agts: %.2fs AgTs() vs %.2fs oracle, recall %.4f, "
              "%zu posting entries verified for %.0f pairs\n",
              ts.sparse_s, ts.exact_s, ts.recall, ts.stats.join.candidates,
              pairs);
  bool ok = true;
  if (pruned_frac <= 0.9) {
    std::printf("FAIL: cascade pruned %.2f%% of AG-TR pairs (need > 90%%)\n",
                100.0 * pruned_frac);
    ok = false;
  }
  if (tr.recall < 1.0) {
    std::printf("FAIL: AG-TR recall %.6f (the path is supposed "
                "to be exact)\n", tr.recall);
    ok = false;
  }
  if (ts.recall < 1.0) {
    std::printf("FAIL: AG-TS recall %.6f (the prefix join is exact by "
                "proof; recall must be 1.0)\n", ts.recall);
    ok = false;
  }
  std::printf("%s\n", ok ? "smoke OK" : "smoke FAILED");
  return ok ? 0 : 1;
}

int run_strategies(std::size_t max_legit) {
  std::printf("=== Extension: AG-TR scalability (Attack-I attackers = 10%% "
              "of users, 40 tasks) ===\n\n");

  TextTable table({"accounts", "all-pairs oracle ms", "AgTr() ms",
                   "identical", "framework ms"});
  bool all_identical = true;
  for (std::size_t legit = 40; legit <= max_legit; legit *= 2) {
    const std::size_t attackers = legit / 10;
    const auto config =
        mcs::make_large_scenario(legit, attackers, 5, 40, 11 + legit);
    const auto data = mcs::generate_scenario(config);
    const auto input = eval::to_framework_input(data);
    const std::size_t accounts = input.accounts.size();

    auto t0 = std::chrono::steady_clock::now();
    const auto exact = agtr_oracle_labels(input, core::AgTrOptions{}.phi);
    const double oracle_ms = 1e3 * seconds_since(t0);

    t0 = std::chrono::steady_clock::now();
    const auto grouping = core::AgTr().group(input);
    const double agtr_ms = 1e3 * seconds_since(t0);

    t0 = std::chrono::steady_clock::now();
    (void)core::run_framework(input, grouping);
    const double framework_ms = 1e3 * seconds_since(t0);

    const bool identical = grouping.labels() == exact;
    all_identical = all_identical && identical;
    table.add_row({std::to_string(accounts), format_cell(oracle_ms, 1),
                   format_cell(agtr_ms, 1), identical ? "yes" : "NO",
                   format_cell(framework_ms, 1)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nAgTr() is exact (identical grouping) because blocking and "
              "the cascade only\nskip pairs whose lower bound already "
              "proves D >= phi, and accept without a\nDP only pairs whose "
              "diagonal upper bound proves D < phi.\n");
  return all_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool smoke = false;
  bool strategies = false;
  std::size_t all_pairs_cap = 100'000;
  std::vector<std::size_t> sizes;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--strategies") == 0) {
      strategies = true;
    } else if (std::strcmp(argv[i], "--all-pairs-cap") == 0 &&
               i + 1 < argc) {
      all_pairs_cap = std::stoul(argv[++i]);
    } else {
      sizes.push_back(std::stoul(argv[i]));
    }
  }
  if (strategies) {
    return run_strategies(sizes.empty() ? 320 : sizes[0]);
  }
  if (smoke) {
    return run_smoke(sizes.empty() ? 5000 : sizes[0]);
  }
  if (sizes.empty()) sizes = {10'000, 100'000};
  return run_grouping(sizes, json, all_pairs_cap);
}
