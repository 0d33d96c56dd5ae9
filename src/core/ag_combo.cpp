#include "core/ag_combo.h"

#include <map>
#include <utility>

#include "common/error.h"
#include "graph/union_find.h"

namespace sybiltd::core {

AccountGrouping partition_meet(const AccountGrouping& a,
                               const AccountGrouping& b) {
  SYBILTD_CHECK(a.account_count() == b.account_count(),
                "partitions cover different account sets");
  const std::size_t n = a.account_count();
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> cell_ids;
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto key = std::make_pair(a.group_of(i), b.group_of(i));
    auto [it, inserted] = cell_ids.try_emplace(key, cell_ids.size());
    labels[i] = it->second;
  }
  return AccountGrouping::from_labels(labels);
}

AccountGrouping partition_join(const AccountGrouping& a,
                               const AccountGrouping& b) {
  SYBILTD_CHECK(a.account_count() == b.account_count(),
                "partitions cover different account sets");
  const std::size_t n = a.account_count();
  graph::UnionFind uf(n);
  for (const AccountGrouping* grouping : {&a, &b}) {
    for (std::size_t g = 0; g < grouping->group_count(); ++g) {
      const auto group = grouping->group(g);
      for (std::size_t k = 1; k < group.size(); ++k) {
        uf.unite(group[0], group[k]);
      }
    }
  }
  return AccountGrouping::from_labels(uf.labels());
}

AgCombo::AgCombo(std::vector<std::shared_ptr<AccountGrouper>> groupers,
                 ComboMode mode)
    : groupers_(std::move(groupers)), mode_(mode) {
  SYBILTD_CHECK(!groupers_.empty(), "AG-COMBO needs at least one grouper");
  for (const auto& g : groupers_) {
    SYBILTD_CHECK(g != nullptr, "AG-COMBO grouper must not be null");
  }
}

std::string AgCombo::name() const {
  std::string out = mode_ == ComboMode::kMeet ? "AG-COMBO(meet"
                                              : "AG-COMBO(join";
  for (const auto& g : groupers_) out += ":" + g->name();
  return out + ")";
}

AccountGrouping AgCombo::group(const FrameworkInput& input) const {
  AccountGrouping combined = groupers_.front()->group(input);
  for (std::size_t g = 1; g < groupers_.size(); ++g) {
    const AccountGrouping next = groupers_[g]->group(input);
    combined = mode_ == ComboMode::kMeet ? partition_meet(combined, next)
                                         : partition_join(combined, next);
  }
  return combined;
}

}  // namespace sybiltd::core
