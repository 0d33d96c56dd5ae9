// SIMD-vs-scalar property sweep: every routed kernel, at every dispatch
// level the host supports, over random lengths (including tails that are
// not a multiple of the lane width), unaligned base pointers, and NaN/±Inf
// values.  Elementwise and min/max kernels must be bit-identical to the
// scalar reference; the two sum reductions must agree within the 1e-12
// relative envelope and be bit-identical across the *vector* levels (they
// share the virtual 4-lane tree).  Runs under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dtw/dtw.h"
#include "simd/simd.h"

namespace sybiltd {
namespace {

using simd::KernelTable;
using simd::Level;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

const std::size_t kLengths[] = {0,  1,  2,  3,  4,   5,   7,  8,
                                15, 16, 17, 31, 33, 64, 100, 257};
constexpr std::size_t kMaxOffset = 3;

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string dump(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g (0x%016llx)", v,
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

// Values in a padded buffer starting at `offset`, so the kernel sees an
// unaligned base pointer.  With specials, ~10% of slots are NaN or ±Inf.
std::vector<double> random_buffer(Rng& rng, std::size_t n,
                                  std::size_t offset, bool specials) {
  std::vector<double> buf(n + offset + 4, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double v = rng.uniform(-100.0, 100.0);
    if (specials) {
      const double roll = rng.uniform();
      if (roll < 0.04) {
        v = kNan;
      } else if (roll < 0.07) {
        v = kInf;
      } else if (roll < 0.10) {
        v = -kInf;
      }
    }
    buf[offset + i] = v;
  }
  return buf;
}

void expect_bitwise(const double* expected, const double* actual,
                    std::size_t n, const char* kernel, Level level) {
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(bits_equal(expected[i], actual[i]))
        << kernel << " at " << simd::level_name(level) << " index " << i
        << ": scalar " << dump(expected[i]) << " vs " << dump(actual[i]);
  }
}

std::vector<Level> vector_levels() {
  std::vector<Level> out;
  for (Level level : simd::available_levels()) {
    if (level != Level::kScalar) out.push_back(level);
  }
  return out;
}

class SimdKernelTest : public ::testing::Test {
 protected:
  const KernelTable& ref_ = *simd::table_for(Level::kScalar);
};

TEST_F(SimdKernelTest, ScalarTableAlwaysAvailable) {
  ASSERT_NE(simd::table_for(Level::kScalar), nullptr);
  ASSERT_FALSE(simd::available_levels().empty());
  EXPECT_EQ(simd::available_levels().front(), Level::kScalar);
}

TEST_F(SimdKernelTest, ElementwiseKernelsBitIdentical) {
  Rng rng(20260806);
  for (Level level : vector_levels()) {
    const KernelTable& table = *simd::table_for(level);
    for (std::size_t n : kLengths) {
      for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
        const auto xs = random_buffer(rng, n, offset, true);
        const auto ys = random_buffer(rng, n, offset, true);
        const double* x = xs.data() + offset;
        const double* y = ys.data() + offset;
        std::vector<double> expected(n + 1, 0.0), actual(n + 1, 0.0);

        const double mu = rng.uniform(-5.0, 5.0);
        ref_.sq_diff(x, y, n, expected.data());
        table.sq_diff(x, y, n, actual.data());
        expect_bitwise(expected.data(), actual.data(), n, "sq_diff", level);

        ref_.residual_sq(x, n, mu, 1.75, expected.data());
        table.residual_sq(x, n, mu, 1.75, actual.data());
        expect_bitwise(expected.data(), actual.data(), n, "residual_sq",
                       level);

        ref_.safe_divide(x, y, n, expected.data());
        table.safe_divide(x, y, n, actual.data());
        expect_bitwise(expected.data(), actual.data(), n, "safe_divide",
                       level);
      }
    }
  }
}

TEST_F(SimdKernelTest, ComplexKernelsBitIdentical) {
  Rng rng(77001);
  for (Level level : vector_levels()) {
    const KernelTable& table = *simd::table_for(level);
    for (std::size_t n : kLengths) {
      for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
        const auto xs = random_buffer(rng, n, offset, true);
        const auto ws = random_buffer(rng, n, offset, false);
        const double* x = xs.data() + offset;
        const double* w = ws.data() + offset;

        std::vector<double> expected(2 * n + 1, -1.0);
        std::vector<double> actual(2 * n + 1, -1.0);
        ref_.window_multiply_complex(x, w, n, expected.data());
        table.window_multiply_complex(x, w, n, actual.data());
        expect_bitwise(expected.data(), actual.data(), 2 * n,
                       "window_multiply_complex", level);

        // Interleaved (re, im) spectrum plus a non-zero accumulator start.
        const auto seg = random_buffer(rng, 2 * n, offset, true);
        auto psd_expected = random_buffer(rng, n, 0, false);
        auto psd_actual = psd_expected;
        ref_.psd_accumulate(seg.data() + offset, n, 2.0, 48000.0,
                            psd_expected.data());
        table.psd_accumulate(seg.data() + offset, n, 2.0, 48000.0,
                             psd_actual.data());
        expect_bitwise(psd_expected.data(), psd_actual.data(), n,
                       "psd_accumulate", level);
      }
    }
  }
}

TEST_F(SimdKernelTest, DtwWaveKernelsBitIdentical) {
  Rng rng(424242);
  for (Level level : vector_levels()) {
    const KernelTable& table = *simd::table_for(level);
    for (std::size_t n : kLengths) {
      for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
        auto cost = random_buffer(rng, n, offset, false);
        auto diag_c = random_buffer(rng, n, offset, false);
        auto vert_c = random_buffer(rng, n, offset, false);
        auto horiz_c = random_buffer(rng, n, offset, false);
        // Mimic real wavefronts: infinity edge cells and exact cost ties.
        for (std::size_t i = 0; i < n; ++i) {
          if (rng.uniform() < 0.15) diag_c[offset + i] = kInf;
          if (rng.uniform() < 0.15) vert_c[offset + i] = kInf;
          if (rng.uniform() < 0.25) vert_c[offset + i] = diag_c[offset + i];
          if (rng.uniform() < 0.25) horiz_c[offset + i] = vert_c[offset + i];
        }

        std::vector<double> expected(n + 1, 0.0), actual(n + 1, 0.0);
        ref_.dtw_wave_cost(cost.data() + offset, diag_c.data() + offset,
                           vert_c.data() + offset, horiz_c.data() + offset,
                           n, expected.data());
        table.dtw_wave_cost(cost.data() + offset, diag_c.data() + offset,
                            vert_c.data() + offset, horiz_c.data() + offset,
                            n, actual.data());
        expect_bitwise(expected.data(), actual.data(), n, "dtw_wave_cost",
                       level);
      }
    }
  }
}

TEST_F(SimdKernelTest, MaxAbsDiffBitIdentical) {
  Rng rng(5150);
  for (Level level : vector_levels()) {
    const KernelTable& table = *simd::table_for(level);
    for (std::size_t n : kLengths) {
      for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
        const auto xs = random_buffer(rng, n, offset, true);
        const auto ys = random_buffer(rng, n, offset, true);
        const double expected = ref_.max_abs_diff(xs.data() + offset,
                                                  ys.data() + offset, n);
        const double actual = table.max_abs_diff(xs.data() + offset,
                                                 ys.data() + offset, n);
        ASSERT_TRUE(bits_equal(expected, actual))
            << "max_abs_diff at " << simd::level_name(level) << " n=" << n
            << ": " << dump(expected) << " vs " << dump(actual);
      }
    }
  }
}

TEST_F(SimdKernelTest, ByteScanKernelsExactAtEveryLevel) {
  Rng rng(777111);
  // Random byte soups biased toward long whitespace runs (scan_json_ws)
  // and long clean-string runs (scan_json_string), so the vector loops
  // actually advance before the first hit.
  const char kWs[] = {' ', '\t', '\n', '\r'};
  for (Level level : vector_levels()) {
    const KernelTable& table = *simd::table_for(level);
    for (std::size_t n : kLengths) {
      for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
        std::vector<char> buf(n + offset + 4, 'x');
        for (std::size_t i = 0; i < n; ++i) {
          const double roll = rng.uniform();
          char c;
          if (roll < 0.55) {
            c = kWs[static_cast<std::size_t>(rng.uniform(0.0, 4.0)) % 4];
          } else if (roll < 0.60) {
            c = '"';
          } else if (roll < 0.65) {
            c = '\\';
          } else if (roll < 0.70) {
            c = static_cast<char>(rng.uniform(0.0, 32.0));
          } else {
            c = static_cast<char>(rng.uniform(32.0, 256.0));
          }
          buf[offset + i] = c;
        }
        const char* data = buf.data();
        // Every begin position: the scans must agree on the exact index.
        for (std::size_t begin = offset; begin <= offset + n; ++begin) {
          const std::size_t end = offset + n;
          ASSERT_EQ(ref_.scan_json_ws(data, begin, end),
                    table.scan_json_ws(data, begin, end))
              << "scan_json_ws at " << simd::level_name(level) << " n=" << n
              << " begin=" << begin;
          ASSERT_EQ(ref_.scan_json_string(data, begin, end),
                    table.scan_json_string(data, begin, end))
              << "scan_json_string at " << simd::level_name(level)
              << " n=" << n << " begin=" << begin;
        }
      }
    }
    // Exhaustive single-byte coverage: for each of the 256 byte values,
    // a long homogeneous run followed by that byte.
    for (int value = 0; value < 256; ++value) {
      std::vector<char> ws_run(70, ' ');
      ws_run[64] = static_cast<char>(value);
      std::vector<char> clean_run(70, 'a');
      clean_run[64] = static_cast<char>(value);
      ASSERT_EQ(ref_.scan_json_ws(ws_run.data(), 0, ws_run.size()),
                table.scan_json_ws(ws_run.data(), 0, ws_run.size()))
          << "scan_json_ws byte " << value << " at "
          << simd::level_name(level);
      ASSERT_EQ(ref_.scan_json_string(clean_run.data(), 0, clean_run.size()),
                table.scan_json_string(clean_run.data(), 0, clean_run.size()))
          << "scan_json_string byte " << value << " at "
          << simd::level_name(level);
    }
  }
}

TEST_F(SimdKernelTest, SumReductionsWithinEnvelopeAndLaneStable) {
  Rng rng(987654);
  for (std::size_t n : kLengths) {
    for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
      const auto xs = random_buffer(rng, n, offset, false);
      const auto ys = random_buffer(rng, n, offset, false);
      const std::size_t n_groups = 9;
      std::vector<double> weights(n_groups);
      for (double& w : weights) w = rng.uniform(0.0, 4.0);
      std::vector<std::uint32_t> groups(n + 1, 0);
      for (std::size_t i = 0; i < n; ++i) {
        groups[i] = static_cast<std::uint32_t>(rng.uniform_index(n_groups));
      }

      const double sd_ref = ref_.squared_distance(xs.data() + offset,
                                                  ys.data() + offset, n);
      double num_ref = 0.0, den_ref = 0.0;
      ref_.weighted_sum_gather(xs.data() + offset, groups.data(),
                               weights.data(), n, &num_ref, &den_ref);

      std::vector<double> sd_by_level, num_by_level, den_by_level;
      for (Level level : vector_levels()) {
        const KernelTable& table = *simd::table_for(level);
        const double sd = table.squared_distance(xs.data() + offset,
                                                 ys.data() + offset, n);
        EXPECT_LE(std::abs(sd - sd_ref),
                  1e-12 * std::max(1.0, std::abs(sd_ref)))
            << "squared_distance at " << simd::level_name(level)
            << " n=" << n;
        double num = 0.0, den = 0.0;
        table.weighted_sum_gather(xs.data() + offset, groups.data(),
                                  weights.data(), n, &num, &den);
        EXPECT_LE(std::abs(num - num_ref),
                  1e-12 * std::max(1.0, std::abs(num_ref)));
        EXPECT_LE(std::abs(den - den_ref),
                  1e-12 * std::max(1.0, std::abs(den_ref)));
        sd_by_level.push_back(sd);
        num_by_level.push_back(num);
        den_by_level.push_back(den);
      }
      // Every vector level shares the virtual 4-lane tree: identical bits.
      for (std::size_t l = 1; l < sd_by_level.size(); ++l) {
        EXPECT_TRUE(bits_equal(sd_by_level[0], sd_by_level[l]));
        EXPECT_TRUE(bits_equal(num_by_level[0], num_by_level[l]));
        EXPECT_TRUE(bits_equal(den_by_level[0], den_by_level[l]));
      }
      if (n < 4) {
        // Shorter than one vector: the vector paths take the serial loop
        // and must match the scalar reference exactly.
        for (double sd : sd_by_level) EXPECT_TRUE(bits_equal(sd, sd_ref));
        for (double num : num_by_level) {
          EXPECT_TRUE(bits_equal(num, num_ref));
        }
      }
    }
  }
}

// The AG-TS set-join verify kernel is integer-only: at every level its
// output ids must equal the scalar table's, and the scalar table must equal
// a direct evaluation of 5T > 2(|A| + |B|).  Rows are one word (m <= 64,
// the hot case) and three words; runs are empty, mixed (rows up to |A|/2
// bit flips from the probe, on both sides of the T > 2L boundary), all
// passing (copies of the probe) and all failing (disjoint from the probe).
TEST_F(SimdKernelTest, SetJoinVerifyExactAtEveryLevel) {
  Rng rng(6677);
  for (const std::size_t words : {std::size_t{1}, std::size_t{3}}) {
    const std::size_t bits = 64 * words;
    std::vector<std::uint64_t> probe(words);
    for (std::uint64_t& w : probe) w = rng() & rng();  // ~1/4 density
    probe[0] |= 1;  // never empty
    std::uint32_t probe_size = 0;
    for (const std::uint64_t w : probe) probe_size += std::popcount(w);

    // Rows: [0, 64) mutants of the probe, [64, 80) copies, [80, 96)
    // disjoint from it.
    constexpr std::size_t kRows = 96;
    std::vector<std::uint64_t> rows(kRows * words);
    std::vector<std::uint32_t> sizes(kRows, 0);
    for (std::size_t r = 0; r < kRows; ++r) {
      std::uint64_t* row = rows.data() + r * words;
      for (std::size_t w = 0; w < words; ++w) {
        row[w] = r < 80 ? probe[w] : ~probe[w] & rng();
      }
      if (r < 64) {
        std::size_t flips = rng.uniform_index(probe_size / 2 + 2);
        for (; flips > 0; --flips) {
          const std::size_t bit = rng.uniform_index(bits);
          row[bit / 64] ^= std::uint64_t{1} << (bit % 64);
        }
      }
      for (std::size_t w = 0; w < words; ++w) sizes[r] += std::popcount(row[w]);
    }
    const auto passes = [&](std::uint32_t id) {
      std::uint64_t both = 0;
      for (std::size_t w = 0; w < words; ++w) {
        both += std::popcount(probe[w] & rows[id * words + w]);
      }
      return 5 * both > 2 * (std::uint64_t{probe_size} + sizes[id]);
    };
    std::size_t mixed_kept = 0, mixed_total = 0;
    for (std::size_t n : kLengths) {
      for (int kind = 0; kind < 3; ++kind) {
        // kind 0: mixed (with repeats), 1: all copies, 2: all disjoint.
        std::vector<std::uint32_t> ids(n);
        for (std::uint32_t& id : ids) {
          const std::size_t base = kind == 0 ? 0 : kind == 1 ? 64 : 80;
          const std::size_t span = kind == 0 ? 64 : 16;
          id = static_cast<std::uint32_t>(base + rng.uniform_index(span));
        }
        std::vector<std::uint32_t> want;
        for (const std::uint32_t id : ids) {
          if (passes(id)) want.push_back(id);
        }
        if (kind == 1) {
          ASSERT_EQ(want.size(), n);
        } else if (kind == 2) {
          ASSERT_TRUE(want.empty());
        }
        if (kind == 0) {
          mixed_kept += want.size();
          mixed_total += n;
        }
        for (const Level level : simd::available_levels()) {
          const KernelTable& table = *simd::table_for(level);
          std::vector<std::uint32_t> got(n);
          got.resize(table.set_join_verify(probe.data(), words, probe_size,
                                           rows.data(), sizes.data(),
                                           ids.data(), n, got.data()));
          ASSERT_EQ(got, want) << "set_join_verify at "
                               << simd::level_name(level) << " words="
                               << words << " n=" << n << " kind=" << kind;
        }
      }
    }
    // The mixed runs must exercise both outcomes.
    EXPECT_GT(mixed_kept, 0u) << "words=" << words;
    EXPECT_LT(mixed_kept, mixed_total) << "words=" << words;
  }
}

// End-to-end: the diagonal-wavefront DTW selected at vector levels must
// reproduce the serial rolling-row DP bit for bit, and both must match
// dtw_full's total_cost, at every level and band width.
TEST(SimdDtwDispatch, WavefrontMatchesScalarRowsBitwise) {
  const Level before = simd::active_level();
  Rng rng(314159);
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{1, 1},
                            {1, 9},
                            {7, 3},
                            {16, 16},
                            {33, 31},
                            {64, 64},
                            {100, 73}}) {
    std::vector<double> a(m), b(n);
    for (double& v : a) v = rng.uniform(-10.0, 10.0);
    for (double& v : b) v = rng.uniform(-10.0, 10.0);
    // Integer-valued series hit exact cost ties between predecessors.
    std::vector<double> ai(m), bi(n);
    for (double& v : ai) v = static_cast<double>(rng.uniform_index(4));
    for (double& v : bi) v = static_cast<double>(rng.uniform_index(4));
    for (std::size_t band : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                             std::size_t{8}}) {
      const dtw::DtwOptions options{band};
      simd::set_active_level(Level::kScalar);
      const double c_scalar = dtw::dtw_total_cost(a, b, options);
      const double ci_scalar = dtw::dtw_total_cost(ai, bi, options);
      ASSERT_TRUE(
          bits_equal(c_scalar, dtw::dtw_full(a, b, options).total_cost));
      ASSERT_TRUE(
          bits_equal(ci_scalar, dtw::dtw_full(ai, bi, options).total_cost));
      for (Level level : simd::available_levels()) {
        simd::set_active_level(level);
        EXPECT_TRUE(bits_equal(c_scalar,
                               dtw::dtw_total_cost(a, b, options)))
            << simd::level_name(level) << " m=" << m << " n=" << n
            << " band=" << band;
        EXPECT_TRUE(bits_equal(ci_scalar,
                               dtw::dtw_total_cost(ai, bi, options)))
            << simd::level_name(level) << " (integer series)";
      }
    }
  }
  simd::set_active_level(before);
}

TEST(SimdDispatch, ParseAndClamp) {
  Level parsed = Level::kAvx2;
  EXPECT_TRUE(simd::parse_level("scalar", &parsed));
  EXPECT_EQ(parsed, Level::kScalar);
  EXPECT_TRUE(simd::parse_level("off", &parsed));
  EXPECT_EQ(parsed, Level::kScalar);
  EXPECT_TRUE(simd::parse_level("SSE2", &parsed));
  EXPECT_EQ(parsed, Level::kSse2);
  EXPECT_TRUE(simd::parse_level("avx2", &parsed));
  EXPECT_EQ(parsed, Level::kAvx2);
  EXPECT_TRUE(simd::parse_level("neon", &parsed));
  EXPECT_EQ(parsed, Level::kNeon);
  EXPECT_FALSE(simd::parse_level("avx512", &parsed));
  EXPECT_FALSE(simd::parse_level("", &parsed));

  const Level before = simd::active_level();
  // Requesting the best level never clamps below a supported request, and
  // a scalar request always lands exactly on scalar.
  EXPECT_EQ(simd::set_active_level(Level::kScalar), Level::kScalar);
  EXPECT_EQ(simd::active_level(), Level::kScalar);
  const Level best = simd::available_levels().back();
  EXPECT_EQ(simd::set_active_level(Level::kAvx2), best);
  simd::set_active_level(before);
}

}  // namespace
}  // namespace sybiltd
