// Account grouping results and the grouper interface (Section IV-C).
//
// A grouping is a partition of account indices: every account is in exactly
// one group, and each group collects accounts the method believes belong to
// one (possibly Sybil) user.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/framework_input.h"

namespace sybiltd::core {

// An AccountGrouping is one CSR table: group_of (per account), group_begin
// (group_count() + 1 offsets) and members (accounts grouped by group,
// ascending within each group).  Every build is a counting sort with a
// constant number of allocations whatever the group count, and a copy is
// three flat copies.
class AccountGrouping {
 public:
  AccountGrouping() = default;
  // Builds from a list of groups; validates that they are non-empty,
  // disjoint and cover exactly the range [0, account_count).  Keeps the
  // given group order (AG-FP appends its fingerprint-less singletons last,
  // and the CRH cell order follows group index); members are stored
  // ascending.
  AccountGrouping(const std::vector<std::vector<std::size_t>>& groups,
                  std::size_t account_count);

  static AccountGrouping singletons(std::size_t account_count);
  // Accounts with equal labels share a group; groups are numbered in
  // ascending label order, and labels with no account get no group.
  static AccountGrouping from_labels(std::span<const std::size_t> labels);

  std::size_t group_count() const {
    return group_begin_.empty() ? 0 : group_begin_.size() - 1;
  }
  std::size_t account_count() const { return group_of_.size(); }
  // Members of group k, ascending.
  std::span<const std::size_t> group(std::size_t k) const {
    SYBILTD_CHECK(k < group_count(), "group index out of range");
    return std::span<const std::size_t>(members_).subspan(
        group_begin_[k], group_begin_[k + 1] - group_begin_[k]);
  }
  // Group index of an account.
  std::size_t group_of(std::size_t account) const {
    SYBILTD_CHECK(account < account_count(), "account index out of range");
    return group_of_[account];
  }
  // Per-account group labels (group indices).
  std::vector<std::size_t> labels() const { return group_of_; }

 private:
  // Fills group_begin_ and members_ from group_of_ by counting sort.
  void index_members(std::size_t group_count);

  std::vector<std::size_t> group_of_;
  std::vector<std::size_t> group_begin_;
  std::vector<std::size_t> members_;
};

// Interface of the three AG methods.
class AccountGrouper {
 public:
  virtual ~AccountGrouper() = default;
  virtual std::string name() const = 0;
  virtual AccountGrouping group(const FrameworkInput& input) const = 0;
};

}  // namespace sybiltd::core
