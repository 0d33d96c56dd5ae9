// Endpoint-grid blocking for AG-TR: emit only the account pairs whose
// endpoint lower bound is below phi, without ever touching the remaining
// pairs.
//
// Exactness argument.  AG-TR's dissimilarity is
//     D(i,j) = DTW(X_i, X_j) + DTW(Y_i, Y_j)
// and each DTW term is bounded below by its endpoint bound, which contains
// the additive terms (x_first_i - x_first_j)^2, (x_last_i - x_last_j)^2
// (and the y twins; when both series are singletons first == last, so the
// single collapsed term carries both coordinates).  Snap every account to
// a 4-d grid over (x.first, x.last, y.first, y.last) with cell width
// w = sqrt(phi).  If two accounts' cells differ by >= 2 along any axis,
// that coordinate pair differs by at least w, so one endpoint term alone is
// >= w^2 = phi, hence D >= phi and the pair can never be an edge.  Every
// pair with endpoint bound < phi therefore lies within Chebyshev cell
// distance <= 1 (the 3^4 neighbor box); blocking visits exactly the box
// pairs and emits those whose bound (candidate/features.h) is < phi.  It
// never drops a true edge, only pairs the cascade's endpoint stage would
// have discarded anyway.
//
// Layout.  The accounts are sorted once by packed cell key into a CSR cell
// table (one key per occupied cell plus start offsets into the sorted
// accounts).  The box of a cell is its own members, the next cell
// (0,0,0,+1) and the contiguous dy_last in {-1,0,+1} run of each of the 13
// forward (dx_first, dx_last, dy_first) rows; one monotone cursor per row
// walks the table, so every neighboring cell pair is visited once with no
// hashing and no per-cell allocation.
//
// Cell coordinates are clamped to +-2^30 and accounts with a non-finite
// endpoint are skipped (their bound is never < phi).  Clamping only merges
// cells, so it can add box pairs but never drop one.
//
// Cost: O(n log n) to sort + O(occupied cells * 14 + box pairs) to walk —
// no n^2 term.  Degenerate data (everything in one cell) degrades to the
// all-pairs bound sweep, never to a wrong answer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "candidate/features.h"

namespace sybiltd::candidate {

struct BlockingStats {
  std::size_t accounts = 0;        // accounts placed in the grid
  std::size_t occupied_cells = 0;  // distinct grid cells
  std::size_t largest_cell = 0;    // accounts in the fullest cell
  std::size_t box_pairs = 0;       // unordered pairs in the 3^4 box
  std::size_t candidates = 0;      // box pairs emitted (bound < phi)
};

// Unordered pairs (i < j) packed as (i << 32) | j, sorted ascending — the
// lexicographic order of an all-pairs loop, so the output (and the
// cascade's per-pair work and counters) is deterministic.  Accounts with
// empty series are skipped (they are never edges).  phi <= 0 admits no
// edge at all, so the candidate list is empty.
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
