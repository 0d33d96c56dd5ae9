// Synthetic Sybil campaign shared by the grouping benches
// (bench/scalability.cpp, bench/micro_benchmarks.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/framework_input.h"

namespace sybiltd::bench {

// Synthetic campaign generator.  mcs::generate_scenario models the paper's
// full sensing physics and becomes the bottleneck near 10^6 accounts, so
// the bench uses a lean generator with the same grouping-relevant shape:
// 90% legitimate accounts with individual task schedules, 10% Sybil
// accounts in groups of 5 that replay one schedule (identical task sets,
// near-identical trajectories — the signature AG-TS / AG-TR detect).
// Tasks scale with n (m = max(64, n / 250)) and the enrollment window
// widens with n so account density per unit time stays realistic.

struct GroupingScenario {
  core::FrameworkInput input;
  std::size_t attacker_groups = 0;
};

// The campaign's task count, enrollment window and schedule lengths
// (distinct tasks per schedule, uniform in [min_schedule, max_schedule];
// max_schedule must not exceed tasks).
struct GroupingShape {
  std::size_t tasks = 64;
  double window_hours = 2.0;
  std::size_t min_schedule = 4;
  std::size_t max_schedule = 12;
};

inline GroupingScenario make_grouping_input(std::size_t n,
                                            std::uint64_t seed,
                                            const GroupingShape& shape) {
  GroupingScenario out;
  const std::size_t m = shape.tasks;
  const double window_hours = shape.window_hours;
  const std::size_t groups = n / 50;  // x5 accounts each = 10% of n
  const std::size_t legit = n - groups * 5;
  out.attacker_groups = groups;
  out.input.task_count = m;
  out.input.accounts.reserve(n);

  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> task_of(0, m - 1);
  std::uniform_int_distribution<std::size_t> schedule_len(shape.min_schedule,
                                                         shape.max_schedule);
  std::uniform_real_distribution<double> start_of(0.0, window_hours);
  std::uniform_real_distribution<double> gap(0.05, 0.3);
  std::normal_distribution<double> truth(-60.0, 5.0);
  std::normal_distribution<double> noise(0.0, 2.0);
  std::uniform_real_distribution<double> clone_offset(0.0, 0.02);

  std::vector<double> task_truth(m);
  for (auto& t : task_truth) t = truth(rng);

  // One schedule: distinct tasks in visit order with increasing timestamps.
  const auto make_schedule = [&](std::vector<core::AccountObservation>* s) {
    const std::size_t len = schedule_len(rng);
    std::vector<std::uint32_t> tasks;
    while (tasks.size() < len) {
      const auto t = static_cast<std::uint32_t>(task_of(rng));
      if (std::find(tasks.begin(), tasks.end(), t) == tasks.end()) {
        tasks.push_back(t);
      }
    }
    double ts = start_of(rng);
    s->clear();
    for (const std::uint32_t t : tasks) {
      s->push_back({t, task_truth[t] + noise(rng), ts});
      ts += gap(rng);
    }
  };

  std::vector<core::AccountObservation> schedule;
  for (std::size_t i = 0; i < legit; ++i) {
    core::AccountTrace trace;
    trace.name = "u" + std::to_string(i);
    make_schedule(&schedule);
    trace.reports = schedule;
    out.input.accounts.push_back(std::move(trace));
  }
  for (std::size_t g = 0; g < groups; ++g) {
    make_schedule(&schedule);
    for (std::size_t c = 0; c < 5; ++c) {
      core::AccountTrace trace;
      trace.name = "a" + std::to_string(g) + "_" + std::to_string(c);
      trace.reports = schedule;
      // Replayed schedule, shifted by a per-clone constant: the task sets
      // stay identical and the timestamp DTW cost stays far below phi.
      const double shift = clone_offset(rng);
      for (auto& report : trace.reports) {
        report.timestamp_hours += shift;
        report.value = -50.0 + 0.5 * noise(rng);
      }
      out.input.accounts.push_back(std::move(trace));
    }
  }
  return out;
}

// The default shape: m = max(64, n / 250) tasks, a window of
// max(2, n / 5000) hours and 4-12-task schedules.
inline GroupingScenario make_grouping_input(std::size_t n,
                                            std::uint64_t seed) {
  return make_grouping_input(
      n, seed,
      GroupingShape{std::max<std::size_t>(64, n / 250),
                    std::max(2.0, static_cast<double>(n) / 5000.0), 4, 12});
}

}  // namespace sybiltd::bench
