#ifndef CDCL_TENSOR_KERNELS_LAYERNORM_H_
#define CDCL_TENSOR_KERNELS_LAYERNORM_H_

#include <cstdint>

namespace cdcl {
namespace kernels {

// ---------------------------------------------------------------------------
// LayerNorm row kernels, shared by the op path (ops::LayerNorm) and the
// fused training sublayer nodes (tensor/fused_train.cc) — one definition of
// the row arithmetic, so the two paths cannot drift (the same sharing rule
// as scalar_math.h).
//
// Forward numerics: the row mean and variance accumulate in eight fixed
// "virtual lanes" combined by a fixed pairwise tree — one portable
// definition the compiler vectorizes, so the summation order is a pure
// function of the row width (bitwise identical across ISA tiers and thread
// counts). The normalize-scale-shift pass and 1/sqrt(var + eps) are exactly
// rounded elementwise ops, so they carry no tier dependence.
//
// Backward numerics replicate the original op backward exactly: per-row
// input gradients are row-local (RowMap), and the gamma/beta reductions
// sweep rows in ascending order per slot (BroadcastReduce decomposition),
// i.e. the same per-slot accumulation order as the original serial row
// loop — bitwise identical at any thread count.
// ---------------------------------------------------------------------------

/// Forward over `rows` rows of width `d`:
///   out[r][j] = xhat[r][j] * gamma[j] + beta[j],
///   xhat[r][j] = (x[r][j] - mean_r) * inv_std[r],
///   inv_std[r] = 1 / sqrt(var_r + eps).
/// `inv_std` (rows) and `xhat` (rows*d) are saved for the backward; either
/// may be nullptr to skip its stores (eval-only callers like
/// LayerNorm::ForwardEval) — `out` is bitwise unchanged by the choice.
void LayerNormForwardRows(int64_t rows, int64_t d, const float* x,
                          const float* gamma, const float* beta, float eps,
                          float* out, float* inv_std, float* xhat);

/// Backward: accumulates (+=) into whichever of gx / ggamma / gbeta is
/// non-null, given the output gradient `g` and the saved forward state.
///   ggamma[j] += sum_r g[r][j] * xhat[r][j]
///   gbeta[j]  += sum_r g[r][j]
///   gx[r][j]  += inv_std[r] * (dyg - mean_j(dyg) - xhat[r][j] *
///                mean_j(dyg * xhat)),  dyg = g[r][j] * gamma[j]
/// Param-grad slots accumulate rows in ascending order (see above).
void LayerNormBackwardRows(int64_t rows, int64_t d, const float* g,
                           const float* gamma, const float* xhat,
                           const float* inv_std, float* gx, float* ggamma,
                           float* gbeta);

}  // namespace kernels
}  // namespace cdcl

#endif  // CDCL_TENSOR_KERNELS_LAYERNORM_H_
