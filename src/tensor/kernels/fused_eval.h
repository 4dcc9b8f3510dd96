#ifndef CDCL_TENSOR_KERNELS_FUSED_EVAL_H_
#define CDCL_TENSOR_KERNELS_FUSED_EVAL_H_

#include <cstdint>

namespace cdcl {
namespace kernels {

// ---------------------------------------------------------------------------
// Fused inference-path epilogues. These collapse the separate elementwise
// tensor ops an eval forward would otherwise issue (bias add, activation,
// score scaling, softmax) into single KernelContext parallel passes over raw
// buffers — no intermediate tensor allocations, no tape.
//
// Bitwise contract: every entry point performs, per element, the *same float
// operations in the same order* as the op-by-op tensor path it replaces
// (tensor_ops.cc), on top of the same GEMM kernels. Results are therefore
// bitwise identical to the unfused path at every thread count and for every
// GEMM kernel selection; tests/batched_eval_test.cc pins this.
// ---------------------------------------------------------------------------

/// x[i] += bias[i % period], the Linear bias epilogue (ops::Add suffix
/// broadcast), applied in place.
void BiasAddMap(int64_t n, int64_t period, float* x, const float* bias);

/// x[i] = gelu(x[i] + bias[i % period]): the fc1 bias + tanh-GELU epilogue of
/// FeedForward, one pass instead of Add followed by Gelu.
void BiasGeluMap(int64_t n, int64_t period, float* x, const float* bias);

/// In-place row softmax over `rows` rows of `n` elements, the exact
/// arithmetic of ops::Softmax without the tensor wrapper.
void SoftmaxRows(int64_t rows, int64_t n, float* x);

/// Fused batched attention forward: for each of `b` samples with `n` tokens
/// of width `d`,
///   probs = Q K^T        (GemmNT, per sample)
///   probs = softmax((probs + bias) * scale)   (row epilogue, in place;
///           `bias` is the per-task b_i over the n key positions, may be
///           null; `softmax` off = the paper's literal linear eq. 2 scores)
///   out   = probs V      (GemmNN, per sample)
/// q/k/v/out are (b*n, d) row-major and `probs` is a caller-owned (b*n, n)
/// buffer the sweep overwrites; the training node
/// (ops::FusedAttentionLayerTrain) keeps it for its backward, the eval path
/// discards it. Samples fan out over the context pool (batch-level when b is
/// wide, inside the GEMMs when it is narrow) with the per-sample GEMM calls
/// identical to the BatchMatMulTransB/BatchMatMul op path, so results stay
/// bitwise identical to it.
void FusedAttentionEval(int64_t b, int64_t n, int64_t d, const float* q,
                        const float* k, const float* v, const float* bias,
                        float scale, bool softmax, float* probs, float* out);

}  // namespace kernels
}  // namespace cdcl

#endif  // CDCL_TENSOR_KERNELS_FUSED_EVAL_H_
