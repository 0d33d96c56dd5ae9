// Disjoint-set union with path compression and union by size: the one
// component finder.  Batch AG-TS and AG-TR unite their grouping edges here
// and read the groups off labels(); graph::IncrementalComponents builds on
// it for the streaming shard, as do AG-COMBO's join and the grouping
// oracles in tests/ and bench/.
#pragma once

#include <cstddef>
#include <vector>

namespace sybiltd::graph {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n);

  // Append isolated elements until there are n (shrinking is rejected).
  void grow(std::size_t n);
  std::size_t element_count() const { return parent_.size(); }

  std::size_t find(std::size_t x);
  // Returns true if the sets were distinct (i.e. a merge happened).
  bool unite(std::size_t a, std::size_t b);
  bool connected(std::size_t a, std::size_t b);
  std::size_t set_count() const { return set_count_; }
  std::size_t size_of(std::size_t x);

  // Canonical labels in [0, #sets) per element, numbered by first occurrence.
  std::vector<std::size_t> labels();

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
  std::size_t set_count_;
};

}  // namespace sybiltd::graph
