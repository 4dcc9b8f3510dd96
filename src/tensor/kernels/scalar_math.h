#ifndef CDCL_TENSOR_KERNELS_SCALAR_MATH_H_
#define CDCL_TENSOR_KERNELS_SCALAR_MATH_H_

#include <algorithm>
#include <cstdint>

#include "tensor/kernels/vec_math.h"

namespace cdcl {
namespace kernels {

// ---------------------------------------------------------------------------
// Per-row math shared by the op-by-op tensor path (tensor_ops.cc), the fused
// inference path (fused_eval.cc) and the fused training path
// (fused_train.cc); the per-element GELU chains are GeluPsScalar /
// GeluGradPsScalar in vec_math.h. Every side MUST call these same functions:
// the fused paths' bitwise-equivalence contract holds only while the
// per-element arithmetic cannot drift between copies
// (tests/batched_eval_test.cc and tests/arena_test.cc enforce the result).
// ---------------------------------------------------------------------------

/// One softmax row y = softmax(x) (max-shifted exp, float accumulation,
/// single reciprocal), the row arithmetic of ops::Softmax. In-place use
/// (y == x) is fine. The shifted row runs through the ExpPs sweep (SIMD over
/// the row body, same chain on the tail), then a serial sum and reciprocal
/// scale; the per-element exp values, the summation order and the scale are
/// each identical to a scalar sweep, so results stay bitwise thread- and
/// tier-invariant.
inline void SoftmaxRow(const float* x, float* y, int64_t n) {
  float mx = x[0];
  for (int64_t j = 1; j < n; ++j) mx = std::max(mx, x[j]);
  for (int64_t j = 0; j < n; ++j) y[j] = x[j] - mx;
  ExpPs(n, y, y);
  float z = 0.0f;
  for (int64_t j = 0; j < n; ++j) z += y[j];
  const float inv = 1.0f / z;
  for (int64_t j = 0; j < n; ++j) y[j] *= inv;
}

}  // namespace kernels
}  // namespace cdcl

#endif  // CDCL_TENSOR_KERNELS_SCALAR_MATH_H_
