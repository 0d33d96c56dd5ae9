#include "graph/union_find.h"

#include <limits>
#include <numeric>

#include "common/error.h"

namespace sybiltd::graph {

UnionFind::UnionFind(std::size_t n)
    : parent_(n), size_(n, 1), set_count_(n) {
  std::iota(parent_.begin(), parent_.end(), std::size_t{0});
}

void UnionFind::grow(std::size_t n) {
  SYBILTD_CHECK(n >= parent_.size(), "union-find cannot shrink");
  while (parent_.size() < n) {
    parent_.push_back(parent_.size());
    size_.push_back(1);
    ++set_count_;
  }
}

std::size_t UnionFind::find(std::size_t x) {
  SYBILTD_CHECK(x < parent_.size(), "union-find element out of range");
  // Path halving.
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];
    x = parent_[x];
  }
  return x;
}

bool UnionFind::unite(std::size_t a, std::size_t b) {
  std::size_t ra = find(a);
  std::size_t rb = find(b);
  if (ra == rb) return false;
  if (size_[ra] < size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  size_[ra] += size_[rb];
  --set_count_;
  return true;
}

bool UnionFind::connected(std::size_t a, std::size_t b) {
  return find(a) == find(b);
}

std::size_t UnionFind::size_of(std::size_t x) { return size_[find(x)]; }

std::vector<std::size_t> UnionFind::labels() {
  // label_of_root[r] is the label of the set rooted at r, npos until the
  // set's first element is met; labels are handed out in that order.
  constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> label_of_root(parent_.size(), npos);
  std::vector<std::size_t> out(parent_.size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < parent_.size(); ++i) {
    std::size_t& label = label_of_root[find(i)];
    if (label == npos) label = next++;
    out[i] = label;
  }
  return out;
}

}  // namespace sybiltd::graph
