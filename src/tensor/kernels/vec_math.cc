#include "tensor/kernels/vec_math.h"

#include "tensor/kernels/kernel_context.h"
#include "tensor/kernels/matmul_internal.h"
#include "tensor/kernels/vec_math_internal.h"

namespace cdcl {
namespace kernels {
namespace {

using SimdSweep = int64_t (*)(int64_t, const float*, float*);
using ScalarChain = float (*)(float);

/// Shared dispatch skeleton: SIMD body on the widest tier the ISA cap
/// allows, scalar chain on the tail (bitwise identical per element, so the
/// split is invisible).
inline void Sweep(int64_t n, const float* x, float* y, SimdSweep avx512,
                  SimdSweep avx2, ScalarChain scalar) {
  int64_t i = 0;
  if (internal::UseAvx512()) {
    i = avx512(n, x, y);
  } else if (internal::UseAvx2()) {
    i = avx2(n, x, y);
  }
  for (; i < n; ++i) y[i] = scalar(x[i]);
}

/// Block width for grad maps that stage a derivative through a stack buffer
/// inside each parallel chunk. A multiple of both SIMD widths.
constexpr int64_t kVecBlock = 256;

}  // namespace

void ExpPs(int64_t n, const float* x, float* y) {
  Sweep(n, x, y, internal::VecExpAvx512, internal::VecExpAvx2, ExpPsScalar);
}

void TanhPs(int64_t n, const float* x, float* y) {
  Sweep(n, x, y, internal::VecTanhAvx512, internal::VecTanhAvx2, TanhPsScalar);
}

void GeluPs(int64_t n, const float* x, float* y) {
  Sweep(n, x, y, internal::VecGeluAvx512, internal::VecGeluAvx2, GeluPsScalar);
}

void GeluGradPs(int64_t n, const float* x, float* y) {
  Sweep(n, x, y, internal::VecGeluGradAvx512, internal::VecGeluGradAvx2,
        GeluGradPsScalar);
}

void ExpMapVec(int64_t n, const float* src, float* dst) {
  ParallelChunks(n, kEltwiseGrain, [=](int64_t begin, int64_t end) {
    ExpPs(end - begin, src + begin, dst + begin);
  });
}

void TanhMapVec(int64_t n, const float* src, float* dst) {
  ParallelChunks(n, kEltwiseGrain, [=](int64_t begin, int64_t end) {
    TanhPs(end - begin, src + begin, dst + begin);
  });
}

void GeluMapVec(int64_t n, const float* src, float* dst) {
  ParallelChunks(n, kEltwiseGrain, [=](int64_t begin, int64_t end) {
    GeluPs(end - begin, src + begin, dst + begin);
  });
}

void GeluGradMulMapVec(int64_t n, const float* pre, float* g) {
  ParallelChunks(n, kEltwiseGrain, [=](int64_t begin, int64_t end) {
    float deriv[kVecBlock];
    for (int64_t i = begin; i < end; i += kVecBlock) {
      const int64_t len = end - i < kVecBlock ? end - i : kVecBlock;
      GeluGradPs(len, pre + i, deriv);
      float* gi = g + i;
      for (int64_t t = 0; t < len; ++t) gi[t] = 0.0f + gi[t] * deriv[t];
    }
  });
}

}  // namespace kernels
}  // namespace cdcl
