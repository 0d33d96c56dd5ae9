#include "candidate/blocking.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"
#include "common/workspace.h"

namespace sybiltd::candidate {

namespace {

// A cell's four coordinates packed into one 128-bit key, 32 bits each:
// x_first, x_last, y_first, y_last from the top, each biased by 2^31.
// With coordinates clamped to +-2^30 a field and its +-1 neighbors never
// carry into the next field, so comparing keys orders cells
// lexicographically and adding a packed offset moves single fields.
using CellKey = unsigned __int128;

constexpr double kCoordLimit = 1073741824.0;  // 2^30
constexpr std::int64_t kBias = std::int64_t{1} << 31;

CellKey cell_coord(double value, double width) {
  const double cell =
      std::clamp(std::floor(value / width), -kCoordLimit, kCoordLimit);
  return static_cast<CellKey>(static_cast<std::int64_t>(cell) + kBias);
}

// (dx_first, dx_last, dy_first) as an addition to a key, modulo 2^128.
constexpr CellKey row_offset(int dx_first, int dx_last, int dy_first) {
  const auto field = [](int delta, int shift) {
    return static_cast<CellKey>(static_cast<__int128>(delta)) << shift;
  };
  return field(dx_first, 96) + field(dx_last, 64) + field(dy_first, 32);
}

// The 13 (dx_first, dx_last, dy_first) offsets whose first non-zero
// component is positive.  Each row, with dy_last in {-1, 0, +1}, plus the
// next cell (0, 0, 0, +1) are the 40 lexicographically larger neighbors of
// a cell, so every unordered pair of distinct neighboring cells is visited
// exactly once, from its smaller end.
constexpr std::array<CellKey, 13> kForwardRows = [] {
  std::array<CellKey, 13> rows{};
  std::size_t r = 0;
  for (int a = 0; a <= 1; ++a) {
    for (int b = -1; b <= 1; ++b) {
      for (int c = -1; c <= 1; ++c) {
        const int first_nonzero = a != 0 ? a : (b != 0 ? b : c);
        if (first_nonzero == 1) rows[r++] = row_offset(a, b, c);
      }
    }
  }
  return rows;
}();

struct Entry {
  CellKey key;
  std::uint32_t id;
};

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

  // Sort the accounts by (cell, id): members of a cell are contiguous and
  // ascending, and cells come in lexicographic order.
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
  std::sort(entries.begin(), entries.begin() + count,
            [](const Entry& a, const Entry& b) {
              return a.key != b.key ? a.key < b.key : a.id < b.id;
            });

  // The CSR cell table, plus each sorted account's endpoints and id.
  auto points = workspace.borrow<EndpointPoint>(count);
  auto ids = workspace.borrow<std::uint32_t>(count);
  auto cell_key = workspace.borrow<CellKey>(count);
  auto cell_start = workspace.borrow<std::uint32_t>(count + 1);
  std::size_t cells = 0;
  for (std::size_t k = 0; k < count; ++k) {
    ids[k] = entries[k].id;
    points[k] = fingerprints[entries[k].id].endpoints();
    if (k == 0 || entries[k].key != entries[k - 1].key) {
      cell_key[cells] = entries[k].key;
      cell_start[cells++] = static_cast<std::uint32_t>(k);
    }
  }
  cell_start[cells] = static_cast<std::uint32_t>(count);
  entries.reset();
  local.occupied_cells = cells;

  candidates.reserve(count);
  const auto emit_cross = [&](std::size_t a, std::size_t b) {
    const std::size_t a_begin = cell_start[a], a_end = cell_start[a + 1];
    const std::size_t b_begin = cell_start[b], b_end = cell_start[b + 1];
    local.box_pairs += (a_end - a_begin) * (b_end - b_begin);
    for (std::size_t p = a_begin; p < a_end; ++p) {
      const EndpointPoint point = points[p];
      const std::uint32_t u = ids[p];
      for (std::size_t q = b_begin; q < b_end; ++q) {
        if (endpoint_bound(point, points[q]).total() < phi) {
          const std::uint32_t v = ids[q];
          candidates.push_back(u < v ? pack_pair(u, v) : pack_pair(v, u));
        }
      }
    }
  };

  std::array<std::size_t, kForwardRows.size()> cursor{};
  for (std::size_t c = 0; c < cells; ++c) {
    const CellKey key = cell_key[c];
    const std::size_t begin = cell_start[c], end = cell_start[c + 1];
    local.largest_cell = std::max(local.largest_cell, end - begin);
    // Within-cell pairs (members are in ascending account order).
    local.box_pairs += (end - begin) * (end - begin - 1) / 2;
    for (std::size_t p = begin; p < end; ++p) {
      for (std::size_t q = p + 1; q < end; ++q) {
        if (endpoint_bound(points[p], points[q]).total() < phi) {
          candidates.push_back(pack_pair(ids[p], ids[q]));
        }
      }
    }
    // (0, 0, 0, +1) is the next cell in key order, if occupied.
    if (c + 1 < cells && cell_key[c + 1] == key + 1) {
      emit_cross(c, c + 1);
    }
    // Each forward row's dy_last in {-1, 0, +1} run.  The row's target
    // keys grow with c, so its cursor only moves forward.
    for (std::size_t r = 0; r < kForwardRows.size(); ++r) {
      const CellKey first = key + kForwardRows[r] - 1;
      const CellKey last = first + 2;
      std::size_t& k = cursor[r];
      while (k < cells && cell_key[k] < first) ++k;
      for (std::size_t t = k; t < cells && cell_key[t] <= last; ++t) {
        emit_cross(c, t);
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  local.candidates = candidates.size();
  if (stats != nullptr) *stats = local;
  return candidates;
}

}  // namespace sybiltd::candidate
