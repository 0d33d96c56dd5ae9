// Virtual 4-lane double vector, one implementation per instruction set.
//
// Include with exactly one of SYBILTD_VEC_AVX2, SYBILTD_VEC_SSE2 or
// SYBILTD_VEC_NEON defined.  Every backend exposes the same `F64x4` type
// with the same lane semantics: lane L of a load holds element L, and all
// arithmetic, comparisons and blends are per-lane IEEE operations.  The
// 128-bit backends model the four lanes as two registers ({l0,l1},
// {l2,l3}), so an SSE2/NEON kernel produces bit-identical results to the
// AVX2 kernel — the virtual layout, not the register width, defines the
// numerics.
//
// Comparison results are all-ones / all-zeros lane masks stored in an
// F64x4; `select(mask, a, b)` takes a where the mask is set.  min/max are
// implemented with compare + select rather than the native min/max
// instructions so NaN handling matches the scalar `<` comparisons exactly
// on every backend (SSE and NEON disagree about min(NaN, x) natively).
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(SYBILTD_VEC_AVX2)
#include <immintrin.h>
#elif defined(SYBILTD_VEC_SSE2)
#include <emmintrin.h>
#elif defined(SYBILTD_VEC_NEON)
#include <arm_neon.h>
#else
#error "vec.h requires SYBILTD_VEC_AVX2, SYBILTD_VEC_SSE2 or SYBILTD_VEC_NEON"
#endif

namespace sybiltd::simd {

// Internal linkage: each backend's translation unit defines its own F64x4
// under this one name, so an external-linkage type would break the
// one-definition rule, and an unoptimised build (whose inline members are
// emitted out of line) could link one backend's members into another.
namespace {

#if defined(SYBILTD_VEC_AVX2)

struct F64x4 {
  __m256d v;

  static F64x4 load(const double* p) { return {_mm256_loadu_pd(p)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  static F64x4 splat(double x) { return {_mm256_set1_pd(x)}; }
  static F64x4 zero() { return {_mm256_setzero_pd()}; }

  friend F64x4 operator+(F64x4 a, F64x4 b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend F64x4 operator-(F64x4 a, F64x4 b) {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend F64x4 operator*(F64x4 a, F64x4 b) {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  friend F64x4 operator/(F64x4 a, F64x4 b) {
    return {_mm256_div_pd(a.v, b.v)};
  }

  static F64x4 lt(F64x4 a, F64x4 b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
  }
  static F64x4 gt(F64x4 a, F64x4 b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
  }
  static F64x4 and_(F64x4 a, F64x4 b) { return {_mm256_and_pd(a.v, b.v)}; }
  // a where mask lane is all-ones, else b.
  static F64x4 select(F64x4 mask, F64x4 a, F64x4 b) {
    return {_mm256_blendv_pd(b.v, a.v, mask.v)};
  }

  double lane(std::size_t i) const {
    alignas(32) double tmp[4];
    _mm256_store_pd(tmp, v);
    return tmp[i];
  }

  // Lanes {w[idx[0]], w[idx[1]], w[idx[2]], w[idx[3]]}.  Index loads are
  // plain loads, so the result is identical on every backend.
  static F64x4 gather_u32(const double* w, const std::uint32_t* idx) {
    return {_mm256_set_pd(w[idx[3]], w[idx[2]], w[idx[1]], w[idx[0]])};
  }

  // Norms (re^2 + im^2) of four interleaved complex values; lane k holds
  // the norm of the k-th (re, im) pair.
  static F64x4 complex_norms(const double* ri) {
    const __m256d ab = _mm256_loadu_pd(ri);      // re0 im0 re1 im1
    const __m256d cd = _mm256_loadu_pd(ri + 4);  // re2 im2 re3 im3
    const __m256d re = _mm256_unpacklo_pd(ab, cd);  // re0 re2 re1 re3
    const __m256d im = _mm256_unpackhi_pd(ab, cd);  // im0 im2 im1 im3
    const __m256d norms =
        _mm256_add_pd(_mm256_mul_pd(re, re), _mm256_mul_pd(im, im));
    // Undo the 0,2,1,3 interleave.
    return {_mm256_permute4x64_pd(norms, _MM_SHUFFLE(3, 1, 2, 0))};
  }

  // Store four lanes as interleaved (lane, 0.0) complex pairs.
  void store_complex_re(double* out_ri) const {
    const __m256d z = _mm256_setzero_pd();
    const __m256d re = v;
    // (re0, 0, re1, 0) needs the low halves of each 128-bit half.
    const __m256d lo = _mm256_unpacklo_pd(re, z);  // re0 0 re2 0
    const __m256d hi = _mm256_unpackhi_pd(re, z);  // re1 0 re3 0
    _mm256_storeu_pd(out_ri, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(out_ri + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
  }
};

#elif defined(SYBILTD_VEC_SSE2)

struct F64x4 {
  __m128d lo;  // lanes 0, 1
  __m128d hi;  // lanes 2, 3

  static F64x4 load(const double* p) {
    return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)};
  }
  void store(double* p) const {
    _mm_storeu_pd(p, lo);
    _mm_storeu_pd(p + 2, hi);
  }
  static F64x4 splat(double x) { return {_mm_set1_pd(x), _mm_set1_pd(x)}; }
  static F64x4 zero() { return {_mm_setzero_pd(), _mm_setzero_pd()}; }

  friend F64x4 operator+(F64x4 a, F64x4 b) {
    return {_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
  }
  friend F64x4 operator-(F64x4 a, F64x4 b) {
    return {_mm_sub_pd(a.lo, b.lo), _mm_sub_pd(a.hi, b.hi)};
  }
  friend F64x4 operator*(F64x4 a, F64x4 b) {
    return {_mm_mul_pd(a.lo, b.lo), _mm_mul_pd(a.hi, b.hi)};
  }
  friend F64x4 operator/(F64x4 a, F64x4 b) {
    return {_mm_div_pd(a.lo, b.lo), _mm_div_pd(a.hi, b.hi)};
  }

  static F64x4 lt(F64x4 a, F64x4 b) {
    return {_mm_cmplt_pd(a.lo, b.lo), _mm_cmplt_pd(a.hi, b.hi)};
  }
  static F64x4 gt(F64x4 a, F64x4 b) {
    return {_mm_cmpgt_pd(a.lo, b.lo), _mm_cmpgt_pd(a.hi, b.hi)};
  }
  static F64x4 and_(F64x4 a, F64x4 b) {
    return {_mm_and_pd(a.lo, b.lo), _mm_and_pd(a.hi, b.hi)};
  }
  static F64x4 select(F64x4 mask, F64x4 a, F64x4 b) {
    return {_mm_or_pd(_mm_and_pd(mask.lo, a.lo),
                      _mm_andnot_pd(mask.lo, b.lo)),
            _mm_or_pd(_mm_and_pd(mask.hi, a.hi),
                      _mm_andnot_pd(mask.hi, b.hi))};
  }

  double lane(std::size_t i) const {
    alignas(16) double tmp[4];
    _mm_store_pd(tmp, lo);
    _mm_store_pd(tmp + 2, hi);
    return tmp[i];
  }

  static F64x4 gather_u32(const double* w, const std::uint32_t* idx) {
    return {_mm_set_pd(w[idx[1]], w[idx[0]]),
            _mm_set_pd(w[idx[3]], w[idx[2]])};
  }

  static F64x4 complex_norms(const double* ri) {
    const __m128d p0 = _mm_loadu_pd(ri);      // re0 im0
    const __m128d p1 = _mm_loadu_pd(ri + 2);  // re1 im1
    const __m128d p2 = _mm_loadu_pd(ri + 4);  // re2 im2
    const __m128d p3 = _mm_loadu_pd(ri + 6);  // re3 im3
    const __m128d re01 = _mm_unpacklo_pd(p0, p1);
    const __m128d im01 = _mm_unpackhi_pd(p0, p1);
    const __m128d re23 = _mm_unpacklo_pd(p2, p3);
    const __m128d im23 = _mm_unpackhi_pd(p2, p3);
    return {_mm_add_pd(_mm_mul_pd(re01, re01), _mm_mul_pd(im01, im01)),
            _mm_add_pd(_mm_mul_pd(re23, re23), _mm_mul_pd(im23, im23))};
  }

  void store_complex_re(double* out_ri) const {
    const __m128d z = _mm_setzero_pd();
    _mm_storeu_pd(out_ri, _mm_unpacklo_pd(lo, z));
    _mm_storeu_pd(out_ri + 2, _mm_unpackhi_pd(lo, z));
    _mm_storeu_pd(out_ri + 4, _mm_unpacklo_pd(hi, z));
    _mm_storeu_pd(out_ri + 6, _mm_unpackhi_pd(hi, z));
  }
};

#elif defined(SYBILTD_VEC_NEON)

struct F64x4 {
  float64x2_t lo;  // lanes 0, 1
  float64x2_t hi;  // lanes 2, 3

  static F64x4 load(const double* p) { return {vld1q_f64(p), vld1q_f64(p + 2)}; }
  void store(double* p) const {
    vst1q_f64(p, lo);
    vst1q_f64(p + 2, hi);
  }
  static F64x4 splat(double x) { return {vdupq_n_f64(x), vdupq_n_f64(x)}; }
  static F64x4 zero() { return splat(0.0); }

  friend F64x4 operator+(F64x4 a, F64x4 b) {
    return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
  }
  friend F64x4 operator-(F64x4 a, F64x4 b) {
    return {vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
  }
  friend F64x4 operator*(F64x4 a, F64x4 b) {
    return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
  }
  friend F64x4 operator/(F64x4 a, F64x4 b) {
    return {vdivq_f64(a.lo, b.lo), vdivq_f64(a.hi, b.hi)};
  }

  static F64x4 from_mask(uint64x2_t mlo, uint64x2_t mhi) {
    return {vreinterpretq_f64_u64(mlo), vreinterpretq_f64_u64(mhi)};
  }
  static F64x4 lt(F64x4 a, F64x4 b) {
    return from_mask(vcltq_f64(a.lo, b.lo), vcltq_f64(a.hi, b.hi));
  }
  static F64x4 gt(F64x4 a, F64x4 b) {
    return from_mask(vcgtq_f64(a.lo, b.lo), vcgtq_f64(a.hi, b.hi));
  }
  static F64x4 and_(F64x4 a, F64x4 b) {
    return from_mask(vandq_u64(vreinterpretq_u64_f64(a.lo),
                               vreinterpretq_u64_f64(b.lo)),
                     vandq_u64(vreinterpretq_u64_f64(a.hi),
                               vreinterpretq_u64_f64(b.hi)));
  }
  static F64x4 select(F64x4 mask, F64x4 a, F64x4 b) {
    return {vbslq_f64(vreinterpretq_u64_f64(mask.lo), a.lo, b.lo),
            vbslq_f64(vreinterpretq_u64_f64(mask.hi), a.hi, b.hi)};
  }

  double lane(std::size_t i) const {
    double tmp[4];
    vst1q_f64(tmp, lo);
    vst1q_f64(tmp + 2, hi);
    return tmp[i];
  }

  static F64x4 gather_u32(const double* w, const std::uint32_t* idx) {
    double tmp[4] = {w[idx[0]], w[idx[1]], w[idx[2]], w[idx[3]]};
    return load(tmp);
  }

  static F64x4 complex_norms(const double* ri) {
    const float64x2x2_t ab = vld2q_f64(ri);      // re0 re1 / im0 im1
    const float64x2x2_t cd = vld2q_f64(ri + 4);  // re2 re3 / im2 im3
    return {vaddq_f64(vmulq_f64(ab.val[0], ab.val[0]),
                      vmulq_f64(ab.val[1], ab.val[1])),
            vaddq_f64(vmulq_f64(cd.val[0], cd.val[0]),
                      vmulq_f64(cd.val[1], cd.val[1]))};
  }

  void store_complex_re(double* out_ri) const {
    const float64x2_t z = vdupq_n_f64(0.0);
    vst2q_f64(out_ri, {lo, z});
    vst2q_f64(out_ri + 4, {hi, z});
  }
};

#endif

}  // namespace
}  // namespace sybiltd::simd
