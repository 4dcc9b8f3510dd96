#ifndef CDCL_TENSOR_KERNELS_FUSED_TRAIN_H_
#define CDCL_TENSOR_KERNELS_FUSED_TRAIN_H_

#include <cstdint>

namespace cdcl {
namespace kernels {

// ---------------------------------------------------------------------------
// Fused training-path epilogues: the forward halves reuse fused_eval.h /
// scalar_math.h / vec_math.h (GeluMapVec, whose backward is
// GeluGradMulMapVec); these are the matching *backward* sweeps consumed by
// the hand-written closures in tensor/fused_train.cc.
//
// Bitwise contract: each entry point performs, per element, the same float
// operations in the same order as the op-by-op tape backward it replaces
// (tensor_ops.cc), over the same parallel-chunk decomposition. Two entries
// fold the op path's "accumulate into a zeroed scratch" step into an
// in-place update; they keep the leading `0.0f +` of that accumulation so
// negative zeros flush identically. tests/arena_test.cc pins the end-to-end
// result (training trajectories bitwise vs the op path); gradcheck_test.cc
// pins correctness of the derivatives themselves.
// ---------------------------------------------------------------------------

/// In-place softmax backward over `rows` rows of width `n`: with y the saved
/// softmax outputs, g[j] = y[j] * (g[j] - dot(g_row, y_row)) per row (the
/// ops::Softmax backward sweep; the downstream scale pass restores the
/// zero-accumulation normalization).
void SoftmaxBackwardRows(int64_t rows, int64_t n, const float* y, float* g);

/// In-place scale backward: g[i] = 0.0f + g[i] * scale (the ops::MulScalar
/// backward sweep onto a zeroed grad).
void ScaleBackwardMap(int64_t n, float scale, float* g);

/// Bias gradient reduction: gbias[i % period] += g[i] over i in [0, n), the
/// ops::Add suffix-broadcast backward (BroadcastReduce chunk order, so
/// per-slot accumulation is identical at any thread count).
void BiasGradReduce(int64_t n, int64_t period, const float* g, float* gbias);

}  // namespace kernels
}  // namespace cdcl

#endif  // CDCL_TENSOR_KERNELS_FUSED_TRAIN_H_
