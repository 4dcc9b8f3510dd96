#ifndef CDCL_TENSOR_FUSED_TRAIN_H_
#define CDCL_TENSOR_FUSED_TRAIN_H_

#include "tensor/tensor.h"

namespace cdcl {
namespace ops {

// ---------------------------------------------------------------------------
// Fused training forwards. Each entry point replaces a chain of tape ops
// (projection reshapes/matmuls, broadcast bias adds, activation/softmax
// epilogues, batched score products) with ONE recorded node: the forward
// runs the flattened GEMMs plus fused epilogues of the inference path
// (kernels/fused_eval.h) while saving exactly the activations the chain's
// backward needs, and the node's hand-written closure replays the chain's
// backward kernels in the chain's reverse-topological order. There are
// three: one per pre-norm encoder sublayer (attention, MLP) and the
// sequence pool. The op chains (TaskConditionedAttention::SelfAttention,
// FeedForward::Forward, ...) stay as the reference they are tested against.
//
// Bitwise contract: both directions execute the same float operations in the
// same order as the op-by-op tape (same GEMM dispatches, same broadcast /
// reduce chunk decompositions, same scalar_math.h arithmetic), so losses,
// gradients and post-step parameters are bitwise identical to the unfused
// path at every thread count and for every GEMM kernel selection, with the
// arena on or off. tests/arena_test.cc pins trajectories end to end;
// gradcheck_test.cc finite-difference-checks the closures.
// ---------------------------------------------------------------------------

/// Pre-norm task-conditioned attention sublayer (paper eqs. 2-3), one node:
///   out = [residual +] epilogue(Q K^T) V,  with Q = LN(q_raw) Wq,
///   K = LN(kv_raw) Wk, V = LN(kv_raw) Wv and
///   epilogue(s) = softmax?((s + bias) * scale),
/// where LN shares one gamma/beta (the encoder block's norm1) across both
/// streams. q_raw/kv_raw are (b, n, d); wq/wk/wv are (d, d); bias is (n) and
/// may be undefined (no additive task bias); `residual` (same shape as the
/// output, may be undefined) folds the block's residual add into the node.
/// The LN forward runs the vectorized row kernels (kernels/layernorm.h)
/// saving xhat / inv_std; the score/P·V part is the eval path's
/// kernels::FusedAttentionEval sweep, whose probs buffer the node keeps for
/// its backward. The backward folds the LayerNorm input/gamma/beta gradients
/// into the reverse replay.
///
/// Self-attention (q_raw.impl() == kv_raw.impl(), the SelfForward path)
/// records ONE tape node: the single LN is computed once and its backward
/// runs at the end of the closure — exactly where the op tape's standalone
/// LayerNorm node would run, since that node's output has this node as its
/// only consumer.
///
/// Cross-attention (two distinct streams) records the node plus ONE
/// companion LN node for the q (source) stream. The kv-stream LN folds into
/// the main node — its closure position in the reverse schedule is always
/// directly after the attention backward. The q-stream LN must keep its own
/// schedule slot: between the two LN backwards the op tape may execute the
/// whole kv-stream producer subtree, and gamma/beta are shared accumulation
/// targets across every LayerNorm application in the model, so folding both
/// would reorder the shared gamma/beta (and hidden-state) accumulations.
/// See docs/kernels.md "Fused pre-norm sublayers" for the two-stream
/// accumulation-order analysis. Bitwise identical to LN-op + attention-chain
/// in all cases.
Tensor FusedAttentionLayerTrain(const Tensor& q_raw, const Tensor& kv_raw,
                                const Tensor& ln_gamma, const Tensor& ln_beta,
                                float ln_eps, const Tensor& wq,
                                const Tensor& wk, const Tensor& wv,
                                const Tensor& bias, float scale, bool softmax,
                                const Tensor& residual = Tensor());

/// Pre-norm two-layer GELU MLP sublayer (the encoder FeedForward with the
/// block's norm2 folded in), one node:
///   out = [residual +] (gelu(LN(x_raw) W1 + b1) W2 + b2)
/// x_raw is (..., d_in) with ndim >= 3; w1 (d_in, hidden), b1 (hidden),
/// w2 (hidden, d_out), b2 (d_out). The bias+GELU epilogue runs as one fused
/// pass and the saved pre-activation feeds the hand-written GELU backward.
/// Like FusedAttentionLayerTrain's self case, the folded LN backward runs at
/// the end of the closure — the op tape's standalone LayerNorm node is this
/// node's immediate schedule successor, so the fold is order-exact.
Tensor FusedFeedForwardLayerTrain(const Tensor& x_raw, const Tensor& ln_gamma,
                                  const Tensor& ln_beta, float ln_eps,
                                  const Tensor& w1, const Tensor& b1,
                                  const Tensor& w2, const Tensor& b2,
                                  const Tensor& residual = Tensor());

/// CCT sequence-pool training forward (paper eqs. 4-6), one node:
///   weights = softmax(x w + b) over tokens,  out[s] = weights[s] · x[s]
/// x is (b, n, d); w is (d, 1); bias is (1). Output (b, d). The token-
/// importance projection runs as one (b*n, 1) GEMM with a fused bias pass;
/// the saved softmax weights feed the hand-written backward.
Tensor FusedSequencePoolTrain(const Tensor& x, const Tensor& w,
                              const Tensor& bias);

}  // namespace ops
}  // namespace cdcl

#endif  // CDCL_TENSOR_FUSED_TRAIN_H_
