#include "core/grouping.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"

namespace sybiltd::core {

AccountGrouping::AccountGrouping(
    const std::vector<std::vector<std::size_t>>& groups,
    std::size_t account_count) {
  group_of_.assign(account_count, account_count);  // sentinel: unassigned
  for (std::size_t k = 0; k < groups.size(); ++k) {
    SYBILTD_CHECK(!groups[k].empty(), "grouping contains an empty group");
    for (std::size_t account : groups[k]) {
      SYBILTD_CHECK(account < account_count,
                    "grouped account index out of range");
      SYBILTD_CHECK(group_of_[account] == account_count,
                    "account appears in more than one group");
      group_of_[account] = k;
    }
  }
  for (std::size_t account = 0; account < account_count; ++account) {
    SYBILTD_CHECK(group_of_[account] != account_count,
                  "account missing from the grouping");
  }
  index_members(groups.size());
}

AccountGrouping AccountGrouping::singletons(std::size_t account_count) {
  AccountGrouping grouping;
  grouping.group_of_.resize(account_count);
  std::iota(grouping.group_of_.begin(), grouping.group_of_.end(),
            std::size_t{0});
  grouping.index_members(account_count);
  return grouping;
}

AccountGrouping AccountGrouping::from_labels(
    std::span<const std::size_t> labels) {
  AccountGrouping grouping;
  if (labels.empty()) return grouping;
  // Number the labels in use in ascending order, so unused labels get no
  // (empty) group.
  const std::size_t max_label = *std::max_element(labels.begin(), labels.end());
  std::vector<std::size_t> group_id(max_label + 1, 0);
  for (std::size_t lab : labels) group_id[lab] = 1;
  std::size_t group_count = 0;
  for (std::size_t& id : group_id) {
    if (id != 0) id = group_count++;
  }
  grouping.group_of_.resize(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    grouping.group_of_[i] = group_id[labels[i]];
  }
  grouping.index_members(group_count);
  return grouping;
}

void AccountGrouping::index_members(std::size_t group_count) {
  // Count each group's size into group_begin_[k + 1], prefix-sum to
  // starts, then place accounts in ascending order, advancing each group's
  // start to its end; shifting by one restores the starts.
  group_begin_.assign(group_count + 1, 0);
  for (std::size_t k : group_of_) ++group_begin_[k + 1];
  std::partial_sum(group_begin_.begin(), group_begin_.end(),
                   group_begin_.begin());
  members_.resize(group_of_.size());
  for (std::size_t account = 0; account < group_of_.size(); ++account) {
    members_[group_begin_[group_of_[account]]++] = account;
  }
  std::copy_backward(group_begin_.begin(), group_begin_.end() - 1,
                     group_begin_.end());
  group_begin_[0] = 0;
}

}  // namespace sybiltd::core
