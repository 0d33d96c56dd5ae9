// SSE2 backend: two 128-bit registers model the four virtual lanes.
// Compiled with -msse2 -ffp-contract=off (see src/simd/CMakeLists.txt);
// contraction stays off so the vector lanes round exactly like the scalar
// reference.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#define SYBILTD_VEC_SSE2
#include "simd/kernels.h"
#include "simd/vec.h"

namespace sybiltd::simd::sse2 {

namespace {
#include "simd/kernels_body.inl"
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

}  // namespace sybiltd::simd::sse2
