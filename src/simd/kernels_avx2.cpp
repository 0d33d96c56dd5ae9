// AVX2 backend: one 256-bit register holds all four lanes.  Compiled with
// -mavx2 -ffp-contract=off (see src/simd/CMakeLists.txt); no -mfma and no
// contraction, so every lane rounds exactly like the scalar reference.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#define SYBILTD_VEC_AVX2
#include "simd/kernels.h"
#include "simd/vec.h"

namespace sybiltd::simd::avx2 {

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

}  // namespace sybiltd::simd::avx2
