// NEON backend (aarch64): two 128-bit registers model the four virtual
// lanes, mirroring the SSE2 layout.  NEON is baseline on aarch64, so no
// extra -m flags are needed; -ffp-contract=off keeps lane rounding exactly
// scalar (see src/simd/CMakeLists.txt).

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#define SYBILTD_VEC_NEON
#include "simd/kernels.h"
#include "simd/vec.h"

namespace sybiltd::simd::neon {

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

}  // namespace sybiltd::simd::neon
