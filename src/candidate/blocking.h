// Endpoint-slab blocking for AG-TR: emit only the account pairs whose
// blocking bound is below phi, without ever touching the remaining pairs.
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
// >= w^2 = phi, hence D >= phi and the pair can never be an edge.
//
// The blocking bound of a pair is, per DTW term,
//     max(endpoint term, extremes_bound)            (candidate/features.h)
// summed over the task and time terms.  Both parts are summands of the
// cascade's stage-1/2 bounds in floating point, so a pair blocking drops
// is one the cascade's endpoint or envelope stage would drop too.
//
// Layout.  The accounts are sorted once by packed 128-bit cell key (and
// id).  A *slab* is a run of equal (x_first, x_last) cells — equal high 64
// bits of the key — and inside a slab the members are ordered by
// (y_first cell, y_last cell, id).  A slab can only meet itself, the next
// slab (0, +1) and the (+1, -1..+1) run, so one cursor per slab finds that
// run.  A slab pair whose coordinate boxes already put every member pair's
// endpoint bound at >= phi is skipped whole (all four squared box gaps;
// only the x_first and y_first gaps when both slabs hold a singleton, the
// collapsed one-term rule).  Inside a surviving slab pair, each member's
// partners with y_first cell within +-1 form a contiguous run that two
// pointers find; every pair of that run gets the blocking bound.
//
// Cell coordinates are clamped to +-2^30 and accounts with a non-finite
// endpoint are skipped (their bound is never < phi).  Clamping only merges
// cells, so it can add window pairs but never drop one.
//
// Cost: a stable LSD radix sort, one O(n) pass per key byte that varies,
// + O(slabs + window pairs) to walk, all scratch borrowed from the
// workspace — no n^2 term and no per-slab allocation.
// Degenerate data (everything in one cell) degrades to the all-pairs bound
// sweep, never to a wrong answer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "candidate/features.h"

namespace sybiltd::candidate {

struct BlockingStats {
  std::size_t accounts = 0;    // accounts placed in the grid
  std::size_t slabs = 0;       // distinct (x_first, x_last) cells
  std::size_t box_pairs = 0;   // pairs in the walked y_first windows
  std::size_t candidates = 0;  // window pairs emitted (bound < phi)
};

// Unordered pairs (i < j) packed as (i << 32) | j, sorted ascending — the
// lexicographic order of an all-pairs loop, so the output (and the
// cascade's per-pair work and counters) is deterministic.  The output is
// exactly the pairs of non-empty series with finite endpoints whose
// blocking bound is below phi.  phi <= 0 admits no edge at all, so the
// candidate list is empty.
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
