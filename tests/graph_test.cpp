// Unit and property tests for src/graph: union-find, checked against a
// test-local graph search.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "graph/union_find.h"

namespace sybiltd::graph {
namespace {

// Independent components oracle: iterative DFS over an adjacency list,
// components numbered in order of their smallest node.
std::vector<std::size_t> dfs_component_labels(
    const std::vector<std::vector<std::size_t>>& adjacency) {
  constexpr std::size_t kUnseen = static_cast<std::size_t>(-1);
  std::vector<std::size_t> labels(adjacency.size(), kUnseen);
  std::vector<std::size_t> stack;
  std::size_t next = 0;
  for (std::size_t start = 0; start < adjacency.size(); ++start) {
    if (labels[start] != kUnseen) continue;
    labels[start] = next;
    stack.push_back(start);
    while (!stack.empty()) {
      const std::size_t u = stack.back();
      stack.pop_back();
      for (std::size_t v : adjacency[u]) {
        if (labels[v] == kUnseen) {
          labels[v] = next;
          stack.push_back(v);
        }
      }
    }
    ++next;
  }
  return labels;
}

TEST(UnionFind, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.set_count(), 5u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(0, 1));  // already together
  EXPECT_TRUE(uf.connected(0, 1));
  EXPECT_FALSE(uf.connected(0, 2));
  EXPECT_EQ(uf.set_count(), 4u);
  EXPECT_EQ(uf.size_of(1), 2u);
}

TEST(UnionFind, LabelsAreCanonical) {
  UnionFind uf(4);
  uf.unite(2, 3);
  const auto labels = uf.labels();
  EXPECT_EQ(labels[2], labels[3]);
  EXPECT_NE(labels[0], labels[2]);
  EXPECT_THROW(uf.find(4), std::invalid_argument);
  // Numbered by first occurrence, whichever element is the set's root.
  UnionFind rooted_late(5);
  rooted_late.unite(4, 3);
  rooted_late.unite(3, 1);
  EXPECT_EQ(rooted_late.labels(), (std::vector<std::size_t>{0, 1, 2, 1, 1}));
}

class DfsVsUnionFind : public ::testing::TestWithParam<std::uint64_t> {};

// Property: union-find and a graph search agree on random graphs, labels
// included (both number components by first occurrence).
TEST_P(DfsVsUnionFind, SamePartition) {
  Rng rng(GetParam());
  const std::size_t n = 20 + rng.uniform_index(30);
  std::vector<std::vector<std::size_t>> adjacency(n);
  UnionFind uf(n);
  const std::size_t edges = rng.uniform_index(2 * n);
  for (std::size_t e = 0; e < edges; ++e) {
    const auto u = rng.uniform_index(n);
    const auto v = rng.uniform_index(n);
    if (u == v) continue;
    adjacency[u].push_back(v);
    adjacency[v].push_back(u);
    uf.unite(u, v);
  }
  const auto search_labels = dfs_component_labels(adjacency);
  EXPECT_EQ(uf.labels(), search_labels);
  std::size_t components = 0;
  for (std::size_t label : search_labels) {
    components = std::max(components, label + 1);
  }
  EXPECT_EQ(components, uf.set_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfsVsUnionFind,
                         ::testing::Values(10, 11, 12, 13, 14, 15, 16, 17));

}  // namespace
}  // namespace sybiltd::graph
