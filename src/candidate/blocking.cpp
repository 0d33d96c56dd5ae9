#include "candidate/blocking.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_map>

#include "common/error.h"

namespace sybiltd::candidate {

namespace {

using CellKey = std::array<std::int64_t, 4>;

struct CellKeyHash {
  std::size_t operator()(const CellKey& key) const {
    // SplitMix64-style mix of the four coordinates.
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::int64_t c : key) {
      std::uint64_t x = static_cast<std::uint64_t>(c) + h;
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 27;
      x *= 0x94d049bb133111ebull;
      x ^= x >> 31;
      h = x;
    }
    return static_cast<std::size_t>(h);
  }
};

// The 40 offsets d in {-1,0,1}^4 \ {0} whose first non-zero component is
// positive: every unordered pair of distinct neighboring cells is visited
// exactly once (from its lexicographically smaller endpoint).
std::vector<CellKey> positive_offsets() {
  std::vector<CellKey> offsets;
  for (int a = -1; a <= 1; ++a) {
    for (int b = -1; b <= 1; ++b) {
      for (int c = -1; c <= 1; ++c) {
        for (int d = -1; d <= 1; ++d) {
          const std::array<int, 4> o{a, b, c, d};
          int first_nonzero = 0;
          for (int v : o) {
            if (v != 0) {
              first_nonzero = v;
              break;
            }
          }
          if (first_nonzero == 1) {
            offsets.push_back(CellKey{a, b, c, d});
          }
        }
      }
    }
  }
  return offsets;
}

inline std::int64_t cell_coord(double value, double width) {
  return static_cast<std::int64_t>(std::floor(value / width));
}

}  // namespace

std::vector<std::uint64_t> endpoint_grid_candidates(
    std::span<const TrajectoryFingerprint> fingerprints, double phi,
    BlockingStats* stats) {
  const std::size_t n = fingerprints.size();
  SYBILTD_CHECK(n < (1ull << 32), "blocking packs account ids into 32 bits");
  std::vector<std::uint64_t> candidates;
  BlockingStats local;
  if (phi <= 0.0 || !std::isfinite(phi)) {
    // No pair can satisfy D < phi <= 0 (DTW costs are non-negative), and a
    // non-finite phi has no meaningful cell width; callers gate the latter.
    if (stats != nullptr) *stats = local;
    return candidates;
  }
  const double width = std::sqrt(phi);

  std::unordered_map<CellKey, std::vector<std::uint32_t>, CellKeyHash> grid;
  grid.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TrajectoryFingerprint& fp = fingerprints[i];
    if (fp.empty()) continue;
    ++local.accounts;
    const CellKey key{cell_coord(fp.task.first, width),
                      cell_coord(fp.task.last, width),
                      cell_coord(fp.time.first, width),
                      cell_coord(fp.time.last, width)};
    grid[key].push_back(static_cast<std::uint32_t>(i));
  }
  local.occupied_cells = grid.size();

  const std::vector<CellKey> offsets = positive_offsets();
  for (const auto& [key, members] : grid) {
    local.largest_cell = std::max(local.largest_cell, members.size());
    // Within-cell pairs (members are in ascending account order).
    for (std::size_t a = 0; a < members.size(); ++a) {
      for (std::size_t b = a + 1; b < members.size(); ++b) {
        candidates.push_back(pack_pair(members[a], members[b]));
      }
    }
    // Cross pairs with each of the 40 lexicographically-larger neighbors.
    for (const CellKey& offset : offsets) {
      const CellKey neighbor{key[0] + offset[0], key[1] + offset[1],
                             key[2] + offset[2], key[3] + offset[3]};
      const auto it = grid.find(neighbor);
      if (it == grid.end()) continue;
      for (std::uint32_t u : members) {
        for (std::uint32_t v : it->second) {
          candidates.push_back(u < v ? pack_pair(u, v) : pack_pair(v, u));
        }
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  local.candidates = candidates.size();
  if (stats != nullptr) *stats = local;
  return candidates;
}

}  // namespace sybiltd::candidate
