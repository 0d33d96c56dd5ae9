// Scalar reference kernels.  These are the exact loops the call sites ran
// before the SIMD layer existed (kmeans.cpp squared_distance, welch.cpp
// window/PSD accumulation, crh.cpp max_abs_difference and the CRH
// weight/truth reductions), moved behind the KernelTable so
// `SYBILTD_SIMD=scalar` reproduces the pre-SIMD bytes exactly.  This TU
// is compiled with the project default flags — no vector -m options, no
// -ffp-contract override — for the same reason.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "simd/kernels.h"

namespace sybiltd::simd::scalar {

namespace {

void sq_diff(const double* a, const double* b, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    out[i] = d * d;
  }
}

void residual_sq(const double* v, std::size_t n, double truth, double norm,
                 double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double d = (v[i] - truth) / norm;
    out[i] = d * d;
  }
}

void window_multiply_complex(const double* x, const double* w,
                             std::size_t n, double* out_ri) {
  for (std::size_t i = 0; i < n; ++i) {
    out_ri[2 * i] = x[i] * w[i];
    out_ri[2 * i + 1] = 0.0;
  }
}

void psd_accumulate(const double* seg_ri, std::size_t n, double scale,
                    double denom, double* psd) {
  for (std::size_t k = 0; k < n; ++k) {
    const double re = seg_ri[2 * k];
    const double im = seg_ri[2 * k + 1];
    psd[k] += scale * (re * re + im * im) / denom;
  }
}

void safe_divide(const double* num, const double* den, std::size_t n,
                 double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = den[i] > 0.0 ? num[i] / den[i]
                          : std::numeric_limits<double>::quiet_NaN();
  }
}

void dtw_wave_cost(const double* cost, const double* diag,
                   const double* vert, const double* horiz, std::size_t n,
                   double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    double best = diag[i];
    if (vert[i] < best) best = vert[i];
    if (horiz[i] < best) best = horiz[i];
    out[i] = cost[i] + best;
  }
}

double max_abs_diff(const double* a, const double* b, std::size_t n) {
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(a[i]) || std::isnan(b[i])) continue;
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

double squared_distance(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

void weighted_sum_gather(const double* values, const std::uint32_t* groups,
                         const double* weights, std::size_t n, double* num,
                         double* den) {
  double sn = 0.0, sd = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = weights[groups[i]];
    sn += w * values[i];
    sd += w;
  }
  *num = sn;
  *den = sd;
}

std::size_t scan_json_ws(const char* data, std::size_t begin,
                         std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const char c = data[i];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return i;
  }
  return end;
}

std::size_t scan_json_string(const char* data, std::size_t begin,
                             std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const unsigned char c = static_cast<unsigned char>(data[i]);
    if (c == '"' || c == '\\' || c < 0x20) return i;
  }
  return end;
}

std::size_t set_join_verify(const std::uint64_t* probe, std::size_t words,
                            std::uint32_t probe_size,
                            const std::uint64_t* rows,
                            const std::uint32_t* sizes,
                            const std::uint32_t* ids, std::size_t n,
                            std::uint32_t* out) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t id = ids[i];
    std::uint64_t both = 0;
    for (std::size_t w = 0; w < words; ++w) {
      both += static_cast<std::uint64_t>(
          std::popcount(probe[w] & rows[id * words + w]));
    }
    if (5 * both > 2 * (std::uint64_t{probe_size} + sizes[id])) {
      out[kept++] = id;
    }
  }
  return kept;
}

}  // namespace

const KernelTable& table() {
  static const KernelTable t{
      sq_diff,       residual_sq,
      window_multiply_complex,      psd_accumulate,
      safe_divide,   dtw_wave_cost,
      max_abs_diff,  squared_distance,
      weighted_sum_gather,
      scan_json_ws,  scan_json_string,
      set_join_verify,
  };
  return t;
}

}  // namespace sybiltd::simd::scalar
