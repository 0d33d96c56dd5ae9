#include "population.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <unordered_map>

namespace perfbench {

SybilCampaign make_sybil_campaign(std::size_t accounts, std::size_t tasks,
                                  std::uint64_t seed) {
  SybilCampaign out;
  const std::size_t groups = accounts / 50;  // x5 accounts = 10% Sybil
  const std::size_t honest = accounts - 5 * groups;
  const double window_hours = 2.0;
  out.input.task_count = tasks;
  out.input.accounts.reserve(accounts);

  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> task_of(0, tasks - 1);
  std::uniform_int_distribution<std::size_t> schedule_len(4, 12);
  std::uniform_real_distribution<double> start_of(0.0, window_hours);
  std::uniform_real_distribution<double> gap(0.05, 0.3);
  std::normal_distribution<double> truth(-60.0, 5.0);
  std::normal_distribution<double> noise(0.0, 2.0);
  std::uniform_real_distribution<double> clone_offset(0.0, 0.02);

  out.truth.resize(tasks);
  for (double& t : out.truth) t = truth(rng);

  std::vector<core::AccountObservation> schedule;
  const auto make_schedule = [&] {
    const std::size_t len = std::min(schedule_len(rng), tasks);
    std::vector<std::size_t> picked;
    while (picked.size() < len) {
      const std::size_t t = task_of(rng);
      if (std::find(picked.begin(), picked.end(), t) == picked.end()) {
        picked.push_back(t);
      }
    }
    double ts = start_of(rng);
    schedule.clear();
    for (const std::size_t t : picked) {
      schedule.push_back({t, out.truth[t] + noise(rng), ts});
      ts += gap(rng);
    }
  };

  for (std::size_t i = 0; i < honest; ++i) {
    make_schedule();
    core::AccountTrace trace;
    trace.reports = schedule;
    out.input.accounts.push_back(std::move(trace));
    out.user_of.push_back(i);
    out.sybil.push_back(false);
  }
  for (std::size_t g = 0; g < groups; ++g) {
    make_schedule();
    for (std::size_t c = 0; c < 5; ++c) {
      core::AccountTrace trace;
      trace.reports = schedule;
      const double shift = clone_offset(rng);
      for (auto& report : trace.reports) {
        report.timestamp_hours += shift;
        report.value = -50.0 + 0.5 * noise(rng);
      }
      out.input.accounts.push_back(std::move(trace));
      out.user_of.push_back(honest + g);
      out.sybil.push_back(true);
    }
  }
  return out;
}

std::vector<StreamReport> round_order(const SybilCampaign& campaign) {
  std::vector<StreamReport> round;
  for (std::size_t a = 0; a < campaign.input.accounts.size(); ++a) {
    for (const auto& r : campaign.input.accounts[a].reports) {
      round.push_back({static_cast<std::uint32_t>(a),
                       static_cast<std::uint32_t>(r.task), r.value,
                       r.timestamp_hours});
    }
  }
  std::stable_sort(round.begin(), round.end(),
                   [](const StreamReport& x, const StreamReport& y) {
                     return x.timestamp_hours < y.timestamp_hours;
                   });
  return round;
}

void append_reports_json(const StreamReport* reports, std::size_t n,
                         std::string* out) {
  char buf[160];
  *out += '[';
  for (std::size_t i = 0; i < n; ++i) {
    const StreamReport& r = reports[i];
    const int len = std::snprintf(
        buf, sizeof buf,
        "%s{\"account\":%u,\"task\":%u,\"value\":%.4f,\"timestamp_hours\":%.4f}",
        i == 0 ? "" : ",", r.account, r.task, r.value, r.timestamp_hours);
    out->append(buf, static_cast<std::size_t>(len));
  }
  *out += ']';
}

double keyed_normal(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 of (seed, index) -> two uniforms -> Box-Muller.
  const auto mix = [](std::uint64_t z) {
    z += 0x9e3779b97f4a7c15uLL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9uLL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebuLL;
    return z ^ (z >> 31);
  };
  const std::uint64_t a = mix(seed * 0x100000001b3uLL ^ (2 * index));
  const std::uint64_t b = mix(a ^ (2 * index + 1));
  const double u1 = (static_cast<double>(a >> 11) + 0.5) * 0x1.0p-53;
  const double u2 = static_cast<double>(b >> 11) * 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double adjusted_rand_index(const std::vector<std::size_t>& a,
                           const std::vector<std::size_t>& b) {
  const auto pairs = [](double n) { return 0.5 * n * (n - 1.0); };
  std::unordered_map<std::size_t, double> rows;
  std::unordered_map<std::size_t, double> cols;
  std::unordered_map<std::uint64_t, double> cells;
  for (std::size_t i = 0; i < a.size(); ++i) {
    rows[a[i]] += 1.0;
    cols[b[i]] += 1.0;
    cells[(static_cast<std::uint64_t>(a[i]) << 32) ^ b[i]] += 1.0;
  }
  double index = 0.0, sum_rows = 0.0, sum_cols = 0.0;
  for (const auto& [k, n] : cells) index += pairs(n);
  for (const auto& [k, n] : rows) sum_rows += pairs(n);
  for (const auto& [k, n] : cols) sum_cols += pairs(n);
  const double total = pairs(static_cast<double>(a.size()));
  if (total == 0.0) return 1.0;
  const double expected = sum_rows * sum_cols / total;
  const double max_index = 0.5 * (sum_rows + sum_cols);
  if (max_index == expected) return 1.0;  // both partitions trivial and equal
  return (index - expected) / (max_index - expected);
}

double mean_abs_error(const std::vector<double>& got,
                      const std::vector<double>& want, std::size_t* covered) {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t j = 0; j < got.size() && j < want.size(); ++j) {
    if (!std::isfinite(got[j])) continue;
    sum += std::abs(got[j] - want[j]);
    ++n;
  }
  *covered = n;
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace perfbench
