// Seeded input generators and the ground truth the correctness gates use.
// The program under test only ever sees what these produce; the truth
// values and account->user labels stay in the driver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/framework_input.h"

namespace perfbench {

namespace core = sybiltd::core;

// A campaign shaped like the paper's attack model: 90% honest accounts with
// their own 4-12 task schedules, 10% Sybil accounts in groups of five that
// replay one schedule (identical task sets, near-identical timestamps) and
// push a fabricated value.
struct SybilCampaign {
  core::FrameworkInput input;
  std::vector<double> truth;          // per task
  std::vector<std::size_t> user_of;   // per account: true owner
  std::vector<bool> sybil;            // per account
};

SybilCampaign make_sybil_campaign(std::size_t accounts, std::size_t tasks,
                                  std::uint64_t seed);

// One report of a stream.
struct StreamReport {
  std::uint32_t account = 0;
  std::uint32_t task = 0;
  double value = 0.0;
  double timestamp_hours = 0.0;
};

// Every (account, task) of the campaign once, in timestamp order: one round
// of the population.
std::vector<StreamReport> round_order(const SybilCampaign& campaign);

// Append `{"account":..,"task":..,"value":..,"timestamp":..}` objects as a
// JSON array.
void append_reports_json(const StreamReport* reports, std::size_t n,
                         std::string* out);

// Deterministic standard normal draw keyed by (seed, index).
double keyed_normal(std::uint64_t seed, std::uint64_t index);

double adjusted_rand_index(const std::vector<std::size_t>& a,
                           const std::vector<std::size_t>& b);
// Mean |got - want| over tasks where `got` is finite; `covered` receives
// how many tasks that was.
double mean_abs_error(const std::vector<double>& got,
                      const std::vector<double>& want, std::size_t* covered);

}  // namespace perfbench
