// Runtime-dispatched SIMD kernel layer for the measured hot loops.
//
// PRs 2–3 made the quadratic kernels parallel and allocation-free; the
// remaining multiplier is data-level parallelism.  This module provides a
// small set of fixed-signature kernels (DTW wavefront cells,
// squared-Euclidean distance, Welch window/PSD accumulation, CRH
// weighted-sum/residual reductions, the AG-TS set-join popcount
// verify), each implemented once per instruction
// set, selected at runtime:
//
//     AVX2  →  SSE2 (x86-64 baseline)  →  NEON (aarch64)  →  scalar
//
// The selection is made on first use from CPU feature detection, can be
// overridden with the `SYBILTD_SIMD` environment variable
// (`avx2|sse2|neon|scalar`, clamped to what the host supports), and is
// exported as the `simd.level` gauge in the metrics registry.  Building
// with `-DSYBILTD_SIMD=OFF` compiles the scalar backend only.
//
// Determinism contract (tested by tests/simd_test.cpp and
// tests/parallel_determinism_test.cpp, documented in docs/PERFORMANCE.md):
//
//  - Elementwise kernels (squared difference, window multiply, PSD
//    accumulate, residual squares, safe divide) and min/max-based kernels
//    (the DTW wavefront recurrence, max_abs_diff) are **bit-identical** to the scalar level:
//    every per-element operation is the same IEEE operation in the same
//    order, and min/max are exact.
//  - Sum reductions (squared_distance, weighted_sum_gather) accumulate
//    into four virtual lanes (lane L holds elements L, L+4, L+8, …) and
//    combine as (l0 + l1) + (l2 + l3), with any tail elements added
//    serially afterwards.  Every vector level therefore produces the same
//    bits as every other vector level; versus the scalar level's serial
//    sum the result differs only by reassociation, within a 1e-12
//    relative envelope.  For n < 4 the vector paths degenerate to the
//    serial loop and are bit-identical to scalar.
//  - Byte-scan kernels (scan_json_ws, scan_json_string, used by the
//    server's schema-specialized report decoder) return exact indexes and
//    are trivially identical at every level.
//  - The set-join verify kernel (set_join_verify, the AG-TS join's and
//    the streaming task-set index's one popcount loop) is integer-only, so
//    its output ids are identical at every level.  The AVX2 TU compiles
//    its std::popcount to the hardware instruction (-mavx2 implies
//    popcnt); the other levels keep the portable sequence.
//  - The level is read once per kernel call; with the level held fixed,
//    results are invariant across runs and thread counts.
//    `SYBILTD_SIMD=scalar` reproduces the pre-SIMD scalar code exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace sybiltd::simd {

// Ordered by preference rank: an unavailable requested level clamps down
// to the best available level with a smaller or equal rank.
enum class Level : int {
  kScalar = 0,
  kSse2 = 1,  // x86-64 baseline, 2x128-bit lanes
  kNeon = 2,  // aarch64 baseline, 2x128-bit lanes
  kAvx2 = 3,  // 4x64-bit lanes in one register
};

// One function pointer per routed kernel.  All pointers are always
// non-null; the scalar table contains the reference implementations.
struct KernelTable {
  // --- Elementwise: bit-identical to scalar at every level ---------------

  // out[i] = (a[i] - b[i])^2
  void (*sq_diff)(const double* a, const double* b, std::size_t n,
                  double* out);
  // out[i] = ((v[i] - truth) / norm)^2
  void (*residual_sq)(const double* v, std::size_t n, double truth,
                      double norm, double* out);
  // out_ri holds interleaved (re, im) pairs: out[2i] = x[i] * w[i],
  // out[2i+1] = 0.0
  void (*window_multiply_complex)(const double* x, const double* w,
                                  std::size_t n, double* out_ri);
  // psd[k] += (scale * (re_k^2 + im_k^2)) / denom over interleaved seg_ri
  void (*psd_accumulate)(const double* seg_ri, std::size_t n, double scale,
                         double denom, double* psd);
  // out[i] = den[i] > 0 ? num[i] / den[i] : quiet NaN
  void (*safe_divide)(const double* num, const double* den, std::size_t n,
                      double* out);

  // --- DTW diagonal wavefront: bit-identical (exact compares/blends) -----

  // Cost-only banded DTW anti-diagonal:
  //   out[i] = cost[i] + min(diag[i], vert[i], horiz[i])
  void (*dtw_wave_cost)(const double* cost, const double* diag,
                        const double* vert, const double* horiz,
                        std::size_t n, double* out);

  // --- Exact reductions: bit-identical (max has no rounding) -------------

  // max over i of |a[i] - b[i]|, pairs with a NaN difference skipped;
  // 0.0 when everything is skipped or n == 0.
  double (*max_abs_diff)(const double* a, const double* b, std::size_t n);

  // --- Sum reductions: fixed 4-lane tree, <= 1e-12 relative envelope -----

  // sum of (a[i] - b[i])^2
  double (*squared_distance)(const double* a, const double* b,
                             std::size_t n);
  // num = sum of weights[groups[i]] * values[i]; den = sum of
  // weights[groups[i]]
  void (*weighted_sum_gather)(const double* values,
                              const std::uint32_t* groups,
                              const double* weights, std::size_t n,
                              double* num, double* den);

  // --- Byte scans for the ingest wire codec: exact at every level --------

  // First index in [begin, end) whose byte is not JSON whitespace
  // (' ', '\t', '\n', '\r'); `end` when the whole range is whitespace.
  std::size_t (*scan_json_ws)(const char* data, std::size_t begin,
                              std::size_t end);
  // First index in [begin, end) whose byte ends or escapes a JSON string
  // body: '"', '\\', or any control byte < 0x20; `end` when none occurs.
  std::size_t (*scan_json_string)(const char* data, std::size_t begin,
                                  std::size_t end);

  // --- Exact set-join verify for AG-TS (Eq. 6): integer, exact ------------

  // Of the posting ids[0..n), write to `out` (in input order) each id whose
  // bitset row rows[id * words .. +words) shares T tasks with `probe` such
  // that 5T > 2(probe_size + sizes[id]), i.e. T > 2L with L the symmetric
  // difference; returns how many were written.  `out` may hold n ids.
  std::size_t (*set_join_verify)(const std::uint64_t* probe,
                                 std::size_t words, std::uint32_t probe_size,
                                 const std::uint64_t* rows,
                                 const std::uint32_t* sizes,
                                 const std::uint32_t* ids, std::size_t n,
                                 std::uint32_t* out);
};

// The active dispatch level (detected on first use, then fixed until
// set_active_level).  Reading it is one relaxed atomic load.
Level active_level();

// Override the active level; clamps to the best available level whose
// rank does not exceed the request.  Returns the level actually selected.
// Intended for tests and benchmarks; do not call concurrently with
// running kernels.
Level set_active_level(Level level);

// Levels compiled in and supported by this host, ascending rank.  Always
// contains Level::kScalar.
const std::vector<Level>& available_levels();

std::string_view level_name(Level level);

// Parse a SYBILTD_SIMD value ("scalar", "off", "sse2", "neon", "avx2");
// returns false on an unrecognized string.  Exposed for tests.
bool parse_level(std::string_view text, Level* out);

// Kernel table of the active level.
const KernelTable& kernels();

// Kernel table for a specific level, or nullptr if that level is not
// compiled in / not supported by this host.
const KernelTable* table_for(Level level);

}  // namespace sybiltd::simd
