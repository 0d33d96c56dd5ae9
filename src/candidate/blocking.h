// Endpoint-grid blocking for AG-TR: emit only the account pairs that could
// possibly have dissimilarity below phi, without ever touching the
// remaining pairs.
//
// Exactness argument.  AG-TR's dissimilarity is
//     D(i,j) = DTW(X_i, X_j) + DTW(Y_i, Y_j)
// and each DTW term is bounded below by its endpoint bound, which contains
// the additive terms (x_first_i - x_first_j)^2, (x_last_i - x_last_j)^2
// (and the y twins; when both series are singletons first == last, so the
// single collapsed term carries both coordinates).  Hash every account into
// a 4-d grid over (x.first, x.last, y.first, y.last) with cell width
// w = sqrt(phi).  If two accounts' cells differ by >= 2 along any axis,
// that coordinate pair differs by at least w, so one endpoint term alone is
// >= w^2 = phi, hence D >= phi and the pair can never be an edge.  Emitting
// exactly the pairs within Chebyshev cell distance <= 1 (the 3^4 neighbor
// box) therefore yields 100% recall by construction: blocking never drops a
// true edge, only pairs the exact path would have discarded anyway.
//
// Cost: O(n) to hash + O(occupied cells * 41 + candidates) to enumerate —
// no n^2 term.  Degenerate data (everything in one cell) degrades to the
// all-pairs candidate list, never to a wrong one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "candidate/features.h"

namespace sybiltd::candidate {

struct BlockingStats {
  std::size_t accounts = 0;        // accounts hashed (non-empty series only)
  std::size_t occupied_cells = 0;  // distinct grid cells
  std::size_t largest_cell = 0;    // accounts in the fullest cell
  std::size_t candidates = 0;      // unordered pairs emitted
};

// Unordered pairs (i < j) packed as (i << 32) | j, sorted ascending — the
// lexicographic order of an all-pairs loop, so the output (and the
// cascade's per-pair work and counters) is deterministic and does not
// depend on the grid's unordered_map iteration order.  Accounts with empty
// series are skipped (they are never edges).  phi <= 0 admits no edge at
// all, so the candidate list is empty.
std::vector<std::uint64_t> endpoint_grid_candidates(
    std::span<const TrajectoryFingerprint> fingerprints, double phi,
    BlockingStats* stats = nullptr);

// Pack / unpack helpers shared by the candidate consumers.
inline std::uint64_t pack_pair(std::size_t i, std::size_t j) {
  return (static_cast<std::uint64_t>(i) << 32) | static_cast<std::uint64_t>(j);
}
inline std::size_t pair_first(std::uint64_t packed) {
  return static_cast<std::size_t>(packed >> 32);
}
inline std::size_t pair_second(std::uint64_t packed) {
  return static_cast<std::size_t>(packed & 0xffffffffu);
}

}  // namespace sybiltd::candidate
