#ifndef CDCL_TENSOR_KERNELS_VEC_MATH_H_
#define CDCL_TENSOR_KERNELS_VEC_MATH_H_

#include <cmath>
#include <cstdint>
#include <cstring>

namespace cdcl {
namespace kernels {

// ---------------------------------------------------------------------------
// Vectorized transcendental tier: polynomial exp / tanh / GELU micro-kernels
// with runtime ISA dispatch (AVX-512F 16-lane > AVX2/FMA 8-lane > scalar).
//
// The polynomial *is* the numerics contract. Every tier evaluates the exact
// FMA chain written out in the ExpPsScalar / TanhPsScalar / GeluPsScalar
// reference functions below — same constants, same operation order, one
// fused multiply-add per `fmaf` — and every operation used (add, sub, mul,
// div, fma, sqrt) is correctly rounded per IEEE-754, while max/min/blend and
// the exponent bit surgery are bit-defined. Results are therefore **bitwise
// identical across ISA tiers** (a 16-lane, 8-lane and scalar sweep of the
// same buffer agree bit for bit, so tails and mixed dispatch are free) and
// trivially across thread counts (the kernels are elementwise).
// tests/vec_math_test.cc pins both properties plus a <= 2-ULP bound against
// the correctly rounded result (see docs/kernels.md "Vectorized
// transcendentals" for the derivation and the measured bounds).
//
// These chains are the only transcendental numerics in the kernels: every
// exp/tanh/GELU of the op path, the fused paths and the losses runs them.
// The buffer kernels dispatch on the same ISA cap as the GEMMs
// (SetIsaCap, matmul_kernel.h).
//
// The scalar reference chain assumes the default round-to-nearest-even FP
// environment (the only mode the project runs in); the magic-number rounding
// trick below bakes that assumption in on every tier equally.
// ---------------------------------------------------------------------------

// -- Shared polynomial definition -------------------------------------------
// Constants are shared verbatim by the scalar chain and the SIMD TUs
// (vec_math_avx2.cc / vec_math_avx512.cc). Do not retune one tier alone.

// exp: e^x = 2^k * e^r with k = round(x * log2(e)) and r = x - k*ln2 split
// Cody-Waite style so the reduction is exact (|k| <= 151 has < 8 mantissa
// bits, so k * kExpLn2Hi is exact in fp32). Degree-5 minimax polynomial for
// (e^r - 1 - r) / r^2 on |r| <= ln2/2 (Cephes expf coefficients).
inline constexpr float kExpClampLo = -104.0f;  // below: result underflows to 0
inline constexpr float kExpClampHi = 89.0f;    // above: result overflows to inf
inline constexpr float kExpLog2E = 1.44269504088896341f;
inline constexpr float kExpMagic = 12582912.0f;  // 1.5 * 2^23: round-to-int bias
inline constexpr int32_t kExpMagicBits = 0x4B400000;
inline constexpr float kExpLn2Hi = 0.693359375f;
inline constexpr float kExpLn2Lo = -2.12194440e-4f;
inline constexpr float kExpC0 = 1.9875691500e-4f;
inline constexpr float kExpC1 = 1.3981999507e-3f;
inline constexpr float kExpC2 = 8.3334519073e-3f;
inline constexpr float kExpC3 = 4.1665795894e-2f;
inline constexpr float kExpC4 = 1.6666665459e-1f;
inline constexpr float kExpC5 = 5.0000001201e-1f;

// tanh: odd polynomial x + x^3 * P(x^2) for |x| < 0.625 (Cephes tanhf),
// 1 - 2 / (e^{2|x|} + 1) with the sign restored above it.
inline constexpr float kTanhThresh = 0.625f;
inline constexpr float kTanhP0 = -5.70498872745e-3f;
inline constexpr float kTanhP1 = 2.06390887954e-2f;
inline constexpr float kTanhP2 = -5.37397155531e-2f;
inline constexpr float kTanhP3 = 1.33314422036e-1f;
inline constexpr float kTanhP4 = -3.33332819422e-1f;

// gelu (tanh approximation):
// gelu(x) = (0.5 x) * (1 + tanh(kC * (x + kB x^3))).
inline constexpr float kGeluC = 0.7978845608f;  // sqrt(2/pi)
inline constexpr float kGeluB = 0.044715f;

namespace vecmath_internal {

inline float BitCastFloat(int32_t v) {
  float f;
  std::memcpy(&f, &v, sizeof(f));
  return f;
}

inline int32_t BitCastInt(float v) {
  int32_t i;
  std::memcpy(&i, &v, sizeof(i));
  return i;
}

/// maxps/minps semantics ((a OP b) ? a : b — NaN or equal picks b), so the
/// scalar chain clamps exactly like the vector tiers.
inline float MaxPs(float a, float b) { return (a > b) ? a : b; }
inline float MinPs(float a, float b) { return (a < b) ? a : b; }

}  // namespace vecmath_internal

/// Scalar reference for the vectorized exp: the exact per-lane FMA chain of
/// the SIMD tiers. NaN propagates; +-inf, under- and overflow behave like
/// libm (underflow rounds through the denormal range via two-step scaling).
inline float ExpPsScalar(float x) {
  using namespace vecmath_internal;
  if (!(x == x)) return x;  // NaN in, same NaN out (the SIMD tiers blend)
  const float xc = MinPs(MaxPs(x, kExpClampLo), kExpClampHi);
  const float kf = std::fmaf(xc, kExpLog2E, kExpMagic);
  const int32_t ki = BitCastInt(kf) - kExpMagicBits;
  const float k = kf - kExpMagic;
  float r = std::fmaf(k, -kExpLn2Hi, xc);
  r = std::fmaf(k, -kExpLn2Lo, r);
  float z = kExpC0;
  z = std::fmaf(z, r, kExpC1);
  z = std::fmaf(z, r, kExpC2);
  z = std::fmaf(z, r, kExpC3);
  z = std::fmaf(z, r, kExpC4);
  z = std::fmaf(z, r, kExpC5);
  const float p = std::fmaf(z, r * r, r) + 1.0f;
  // 2^ki in two factors so ki in [-150, 128] reaches denormals and infinity
  // with exactly one rounding (p * s1 is exact while normal).
  const int32_t k1 = ki >> 1;
  const int32_t k2 = ki - k1;
  const float s1 = BitCastFloat((k1 + 127) << 23);
  const float s2 = BitCastFloat((k2 + 127) << 23);
  return (p * s1) * s2;
}

/// Scalar reference for the vectorized tanh (see constants above). The big
/// branch reuses the ExpPsScalar chain on 2|x|, so the two kernels cannot
/// drift apart.
inline float TanhPsScalar(float x) {
  using namespace vecmath_internal;
  if (!(x == x)) return x;
  // Both branches run on |x| with the sign OR-ed back at the end: tanh is
  // odd, so this is bitwise equivalent for x != 0 and keeps tanh(-0) == -0.
  const float z = BitCastFloat(BitCastInt(x) & 0x7FFFFFFF);
  float y;
  if (z < kTanhThresh) {
    const float w = z * z;
    float q = kTanhP0;
    q = std::fmaf(q, w, kTanhP1);
    q = std::fmaf(q, w, kTanhP2);
    q = std::fmaf(q, w, kTanhP3);
    q = std::fmaf(q, w, kTanhP4);
    y = std::fmaf(z * w, q, z);
  } else {
    const float e = ExpPsScalar(z + z);
    y = 1.0f - 2.0f / (e + 1.0f);
  }
  const int32_t sign = BitCastInt(x) & BitCastInt(-0.0f);
  return BitCastFloat(BitCastInt(y) | sign);
}

/// Scalar reference for the vectorized tanh-approximation GELU.
inline float GeluPsScalar(float x) {
  const float x3 = (x * x) * x;
  const float arg = kGeluC * std::fmaf(kGeluB, x3, x);
  const float t = TanhPsScalar(arg);
  return (0.5f * x) * (1.0f + t);
}

/// Scalar reference for d/dx GeluPsScalar (the vectorized GELU backward).
inline float GeluGradPsScalar(float x) {
  const float x2 = x * x;
  const float arg = kGeluC * std::fmaf(kGeluB, x2 * x, x);
  const float t = TanhPsScalar(arg);
  const float sech2 = std::fmaf(-t, t, 1.0f);
  const float du = kGeluC * std::fmaf(3.0f * kGeluB, x2, 1.0f);
  const float a = 0.5f * (1.0f + t);
  return std::fmaf((0.5f * x) * sech2, du, a);
}

// -- Buffer kernels (serial; safe inside parallel regions) -------------------
// ISA-dispatched sweeps: widest allowed SIMD tier over the body, scalar
// chain over the tail.

/// y[i] = exp(x[i]) for i in [0, n). In place (y == x) is fine.
void ExpPs(int64_t n, const float* x, float* y);

/// y[i] = tanh(x[i]). In place is fine.
void TanhPs(int64_t n, const float* x, float* y);

/// y[i] = gelu(x[i]). In place is fine.
void GeluPs(int64_t n, const float* x, float* y);

/// y[i] = gelu'(x[i]). In place is fine.
void GeluGradPs(int64_t n, const float* x, float* y);

// -- Parallel maps (KernelContext-chunked wrappers over the buffer kernels) --

/// dst[i] = exp(src[i]), fanned over the kernel pool.
void ExpMapVec(int64_t n, const float* src, float* dst);

/// dst[i] = tanh(src[i]), fanned over the kernel pool.
void TanhMapVec(int64_t n, const float* src, float* dst);

/// dst[i] = gelu(src[i]), fanned over the kernel pool.
void GeluMapVec(int64_t n, const float* src, float* dst);

/// g[i] = 0.0f + g[i] * gelu'(pre[i]), fanned over the kernel pool (the
/// leading 0.0f + matches the op path's zero-seeded accumulation so negative
/// zeros flush identically; see kernels/fused_train.h).
void GeluGradMulMapVec(int64_t n, const float* pre, float* g);

}  // namespace kernels
}  // namespace cdcl

#endif  // CDCL_TENSOR_KERNELS_VEC_MATH_H_
