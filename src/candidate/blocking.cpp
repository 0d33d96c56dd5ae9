#include "candidate/blocking.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/workspace.h"

namespace sybiltd::candidate {

namespace {

// A cell's four coordinates packed into one 128-bit key, 32 bits each:
// x_first, x_last, y_first, y_last from the top, each biased by 2^31.
// With coordinates clamped to +-2^30 a field and its +-1 neighbors never
// carry into the next field, so comparing keys orders cells
// lexicographically and adding a packed offset moves single fields.  The
// high 64 bits are the slab, the (x_first, x_last) cell.
using CellKey = unsigned __int128;

constexpr double kCoordLimit = 1073741824.0;  // 2^30
constexpr std::int64_t kBias = std::int64_t{1} << 31;

CellKey cell_coord(double value, double width) {
  const double cell =
      std::clamp(std::floor(value / width), -kCoordLimit, kCoordLimit);
  return static_cast<CellKey>(static_cast<std::int64_t>(cell) + kBias);
}

struct Entry {
  CellKey key;
  std::uint32_t id;
};

// Stable LSD radix sort of `count` entries by key, one counting pass per
// key byte that is not the same in every entry (usually a few: cells
// spread over a narrow range of each coordinate).  `scratch` holds as
// many entries; returns whichever of the two buffers ends up sorted.
// Entries arrive in ascending id order, so equal keys stay in id order.
Entry* sort_by_key(Entry* entries, Entry* scratch, std::size_t count) {
  if (count < 2) return entries;
  CellKey differ = 0;
  for (std::size_t k = 1; k < count; ++k) {
    differ |= entries[k].key ^ entries[0].key;
  }
  for (int shift = 0; shift < 128; shift += 8) {
    if (((differ >> shift) & 0xff) == 0) continue;
    std::size_t start[257] = {};
    for (std::size_t k = 0; k < count; ++k) {
      ++start[((entries[k].key >> shift) & 0xff) + 1];
    }
    for (std::size_t d = 1; d < 257; ++d) start[d] += start[d - 1];
    for (std::size_t k = 0; k < count; ++k) {
      scratch[start[(entries[k].key >> shift) & 0xff]++] = entries[k];
    }
    std::swap(entries, scratch);
  }
  return entries;
}

// One sorted account: its endpoints and envelope extremes, the biased
// y_first cell the window compares, and its id.
struct Member {
  EndpointPoint point;
  double task_lo;
  double task_hi;
  double time_lo;
  double time_hi;
  std::uint32_t y_cell;
  std::uint32_t id;
};

double blocking_bound(const Member& a, const Member& b) {
  const EndpointBound endpoint = endpoint_bound(a.point, b.point);
  return std::max(endpoint.task,
                  extremes_bound(a.task_lo, a.task_hi, b.task_lo, b.task_hi)) +
         std::max(endpoint.time,
                  extremes_bound(a.time_lo, a.time_hi, b.time_lo, b.time_hi));
}

// A run of members with equal (x_first, x_last) cells, the coordinate box
// of their endpoints, and whether any member is a singleton.
struct Slab {
  std::uint64_t key;
  std::uint32_t begin;
  EndpointPoint lo;
  EndpointPoint hi;
  bool singleton;
};

double gap(double lo_a, double hi_a, double lo_b, double hi_b) {
  if (lo_b > hi_a) return lo_b - hi_a;
  if (lo_a > hi_b) return lo_a - hi_b;
  return 0.0;
}

// The endpoint bound no member pair of two slabs can beat: each squared
// coordinate difference is at least the squared gap between the boxes
// (subtraction and squaring round monotonically), summed by the same
// endpoint_bound arithmetic.  If both slabs hold a singleton, a
// singleton-singleton pair counts only its first alignment, so only the
// first gaps count.
double box_bound(const Slab& a, const Slab& b) {
  const bool collapsed = a.singleton && b.singleton;
  const EndpointPoint origin{0.0, 0.0, 0.0, 0.0, collapsed};
  const EndpointPoint gaps{
      gap(a.lo.task_first, a.hi.task_first, b.lo.task_first, b.hi.task_first),
      gap(a.lo.task_last, a.hi.task_last, b.lo.task_last, b.hi.task_last),
      gap(a.lo.time_first, a.hi.time_first, b.lo.time_first, b.hi.time_first),
      gap(a.lo.time_last, a.hi.time_last, b.lo.time_last, b.hi.time_last),
      collapsed};
  return endpoint_bound(origin, gaps).total();
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

  // Sort the accounts by (cell, id): slabs are contiguous and in key order,
  // and a slab's members come by (y_first cell, y_last cell, id).
  Workspace& workspace = Workspace::local();
  auto entries = workspace.borrow<Entry>(n);
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const TrajectoryFingerprint& fp = fingerprints[i];
    if (fp.empty()) continue;
    const EndpointPoint p = fp.endpoints();
    if (!std::isfinite(p.task_first) || !std::isfinite(p.task_last) ||
        !std::isfinite(p.time_first) || !std::isfinite(p.time_last)) {
      continue;
    }
    entries[count++] = {cell_coord(p.task_first, width) << 96 |
                            cell_coord(p.task_last, width) << 64 |
                            cell_coord(p.time_first, width) << 32 |
                            cell_coord(p.time_last, width),
                        static_cast<std::uint32_t>(i)};
  }
  local.accounts = count;
  auto scratch = workspace.borrow<Entry>(count);
  const Entry* sorted = sort_by_key(entries.data(), scratch.data(), count);

  // The members in sorted order and the slab table over them, with one
  // sentinel slab whose begin closes the last run.
  auto members = workspace.borrow<Member>(count);
  auto slabs = workspace.borrow<Slab>(count + 1);
  std::size_t slab_count = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const TrajectoryFingerprint& fp = fingerprints[sorted[k].id];
    const EndpointPoint p = fp.endpoints();
    members[k] = {p,
                  fp.task.lo,
                  fp.task.hi,
                  fp.time.lo,
                  fp.time.hi,
                  static_cast<std::uint32_t>(sorted[k].key >> 32),
                  sorted[k].id};
    const auto key = static_cast<std::uint64_t>(sorted[k].key >> 64);
    if (slab_count == 0 || slabs[slab_count - 1].key != key) {
      slabs[slab_count++] = {key, static_cast<std::uint32_t>(k), p, p,
                             p.singleton};
    } else {
      Slab& s = slabs[slab_count - 1];
      s.lo = {std::min(s.lo.task_first, p.task_first),
              std::min(s.lo.task_last, p.task_last),
              std::min(s.lo.time_first, p.time_first),
              std::min(s.lo.time_last, p.time_last), false};
      s.hi = {std::max(s.hi.task_first, p.task_first),
              std::max(s.hi.task_last, p.task_last),
              std::max(s.hi.time_first, p.time_first),
              std::max(s.hi.time_last, p.time_last), false};
      s.singleton = s.singleton || p.singleton;
    }
  }
  slabs[slab_count].begin = static_cast<std::uint32_t>(count);
  entries.reset();
  scratch.reset();
  local.slabs = slab_count;

  candidates.reserve(count);
  const auto test = [&](const Member& a, const Member& b) {
    if (blocking_bound(a, b) < phi) {
      candidates.push_back(a.id < b.id ? pack_pair(a.id, b.id)
                                       : pack_pair(b.id, a.id));
    }
  };
  // Pairs of one slab: each member with the later members whose y_first
  // cell is at most one above its own.
  const auto walk_within = [&](std::size_t s) {
    const std::size_t begin = slabs[s].begin, end = slabs[s + 1].begin;
    std::size_t reach = begin;
    for (std::size_t p = begin; p < end; ++p) {
      const std::uint32_t top = members[p].y_cell + 1;
      reach = std::max(reach, p + 1);
      while (reach < end && members[reach].y_cell <= top) ++reach;
      local.box_pairs += reach - p - 1;
      for (std::size_t q = p + 1; q < reach; ++q) test(members[p], members[q]);
    }
  };
  // Pairs across two neighboring slabs: each member of `a` with the run of
  // `b` whose y_first cells are within +-1 of its own.
  const auto walk_across = [&](std::size_t a, std::size_t b) {
    if (box_bound(slabs[a], slabs[b]) >= phi) return;
    const std::size_t b_end = slabs[b + 1].begin;
    std::size_t lo = slabs[b].begin, hi = lo;
    for (std::size_t p = slabs[a].begin; p < slabs[a + 1].begin; ++p) {
      const std::uint32_t y = members[p].y_cell;
      while (lo < b_end && members[lo].y_cell + 1 < y) ++lo;
      hi = std::max(hi, lo);
      while (hi < b_end && members[hi].y_cell <= y + 1) ++hi;
      local.box_pairs += hi - lo;
      for (std::size_t q = lo; q < hi; ++q) test(members[p], members[q]);
    }
  };

  // A slab meets itself, the next slab (0, +1) and the (+1, -1..+1) run;
  // the run's keys grow with the slab's, so its cursor only moves forward.
  constexpr std::uint64_t kNextRow = std::uint64_t{1} << 32;
  std::size_t row = 0;
  for (std::size_t s = 0; s < slab_count; ++s) {
    const std::uint64_t key = slabs[s].key;
    walk_within(s);
    if (s + 1 < slab_count && slabs[s + 1].key == key + 1) {
      walk_across(s, s + 1);
    }
    const std::uint64_t first = key + kNextRow - 1;
    while (row < slab_count && slabs[row].key < first) ++row;
    for (std::size_t t = row; t < slab_count && slabs[t].key <= first + 2;
         ++t) {
      walk_across(s, t);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  local.candidates = candidates.size();
  if (stats != nullptr) *stats = local;
  return candidates;
}

}  // namespace sybiltd::candidate
