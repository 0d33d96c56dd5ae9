// Input types of the Sybil-resistant truth discovery framework.
//
// The framework consumes, per account: the tasks it reported with values
// and timestamps (for AG-TS and AG-TR) and its sign-in device fingerprint
// feature vector (for AG-FP).  Timestamps are in HOURS since the campaign
// epoch — the unit the paper's AG-TR worked example (Fig. 4) uses, so its
// dissimilarity magnitudes carry over directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"

namespace sybiltd::core {

struct AccountObservation {
  std::size_t task = 0;
  double value = 0.0;
  double timestamp_hours = 0.0;
};

struct AccountTrace {
  std::string name;
  // Reports sorted by timestamp; at most one report per task.
  std::vector<AccountObservation> reports;
  // Device fingerprint features; may be empty when the platform could not
  // capture one (AG-FP then treats the account as its own group).
  std::vector<double> fingerprint;
};

struct FrameworkInput {
  std::size_t task_count = 0;
  std::vector<AccountTrace> accounts;
};

// A report's task as the 32-bit id the flat tables store (the data-grouping
// walk, AgTs::task_sets).  Throws unless it is below task_count and fits
// in 32 bits, so no id wraps onto another task.
inline std::uint32_t checked_task_id(std::size_t task,
                                     std::size_t task_count) {
  SYBILTD_CHECK(task < task_count &&
                    task <= std::numeric_limits<std::uint32_t>::max(),
                "report task out of range");
  return static_cast<std::uint32_t>(task);
}

}  // namespace sybiltd::core
