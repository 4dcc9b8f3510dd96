#include "tensor/fused_train.h"

#include <memory>
#include <vector>

#include "tensor/autograd.h"
#include "tensor/kernels/fused_eval.h"
#include "tensor/kernels/fused_train.h"
#include "tensor/kernels/layernorm.h"
#include "tensor/kernels/matmul_kernel.h"
#include "tensor/kernels/parallel.h"
#include "tensor/kernels/vec_math.h"
#include "util/logging.h"

namespace cdcl {
namespace ops {
namespace {

using cdcl::internal::TensorImpl;
using internal::AttachNode;
using internal::NeedsGrad;

// Every closure replicates the tape backward of the op chain it replaces.
// Two rules keep that replication bitwise:
//
//  1. Gradients the op path GEMM-accumulates into a zeroed scratch are
//     reproduced with the same GEMM-accumulate into a zeroed tensor; the
//     follow-up reshape pass-through (`scratch2[i] = 0.0f + scratch[i]`) is
//     dropped because a GEMM accumulation seeded from +0.0 can never yield
//     -0.0, which makes the pass-through the identity.
//  2. Gradients the op path builds with an elementwise product into a zeroed
//     scratch (scale, GELU, softmax backward) are computed in place but keep
//     the leading `0.0f +` (kernels/fused_train.h), so -0.0 products flush
//     to +0.0 exactly as the op path's zero-accumulation does.
//
// Intermediate scratch is allocated as ordinary tensors inside the closure:
// under an ArenaScope (the trainer step loops) these are bump allocations
// that vanish at the step reset.

/// The serial += of TensorImpl::AccumulateGrad applied to a closure-local
/// scratch tensor standing in for an op-path intermediate's grad buffer (the
/// folded LayerNorm's output gradient).
void AccumulateInto(Tensor* dst, const float* src, int64_t n) {
  float* p = dst->data();
  for (int64_t i = 0; i < n; ++i) p[i] += src[i];
}

/// The ops::LayerNorm backward (kernels/layernorm.h) against tensor impls:
/// shared by the folded LN epilogues and the cross-attention companion node,
/// so every LN backward in the fused path is the literal op-node backward.
void LayerNormBackwardInto(int64_t rows, int64_t d, const float* g,
                           const std::shared_ptr<TensorImpl>& x_impl,
                           const std::shared_ptr<TensorImpl>& gamma_impl,
                           const std::shared_ptr<TensorImpl>& beta_impl,
                           const Tensor& xhat, const Tensor& inv_std) {
  const bool need_x = NeedsGrad(x_impl);
  const bool need_g = NeedsGrad(gamma_impl);
  const bool need_b = NeedsGrad(beta_impl);
  if (!need_x && !need_g && !need_b) return;
  if (need_x) x_impl->EnsureGrad();
  if (need_g) gamma_impl->EnsureGrad();
  if (need_b) beta_impl->EnsureGrad();
  kernels::LayerNormBackwardRows(
      rows, d, g, gamma_impl->data.data(), xhat.data(), inv_std.data(),
      need_x ? x_impl->grad.data() : nullptr,
      need_g ? gamma_impl->grad.data() : nullptr,
      need_b ? beta_impl->grad.data() : nullptr);
}

}  // namespace

Tensor FusedAttentionLayerTrain(const Tensor& q_raw, const Tensor& kv_raw,
                                const Tensor& ln_gamma, const Tensor& ln_beta,
                                float ln_eps, const Tensor& wq,
                                const Tensor& wk, const Tensor& wv,
                                const Tensor& bias, float scale, bool softmax,
                                const Tensor& residual) {
  CDCL_CHECK_EQ(q_raw.ndim(), 3);
  CDCL_CHECK_EQ(kv_raw.ndim(), 3);
  const int64_t b = q_raw.dim(0), n = q_raw.dim(1), d = q_raw.dim(2);
  CDCL_CHECK_EQ(kv_raw.dim(0), b);
  CDCL_CHECK_EQ(kv_raw.dim(1), n);
  CDCL_CHECK_EQ(kv_raw.dim(2), d);
  CDCL_CHECK_EQ(ln_gamma.NumElements(), d);
  CDCL_CHECK_EQ(ln_beta.NumElements(), d);
  CDCL_CHECK_EQ(wq.dim(0), d);
  CDCL_CHECK_EQ(wq.dim(1), d);
  CDCL_CHECK(wk.shape() == wq.shape());
  CDCL_CHECK(wv.shape() == wq.shape());
  const bool has_bias = bias.defined();
  if (has_bias) CDCL_CHECK_EQ(bias.NumElements(), n);
  const bool has_res = residual.defined();
  if (has_res) CDCL_CHECK(residual.shape() == q_raw.shape());
  const int64_t rows = b * n;
  // Self mode (one shared pre-norm, fully folded) vs cross mode (kv-stream
  // LN folded, q-stream LN as a companion node); see fused_train.h.
  const bool self_mode = q_raw.impl() == kv_raw.impl();

  auto qraw_impl = q_raw.impl();
  auto kvraw_impl = kv_raw.impl();
  auto gamma_impl = ln_gamma.impl();
  auto beta_impl = ln_beta.impl();
  const bool ln_q_rg = q_raw.requires_grad() || ln_gamma.requires_grad() ||
                       ln_beta.requires_grad();
  const bool ln_kv_rg =
      self_mode ? ln_q_rg
                : (kv_raw.requires_grad() || ln_gamma.requires_grad() ||
                   ln_beta.requires_grad());

  // Pre-norm forward(s): the fused LN row kernels, saving xhat / inv_std
  // exactly like ops::LayerNorm does.
  Tensor qn = Tensor::Uninitialized(q_raw.shape());
  Tensor inv_q = Tensor::Uninitialized(Shape{rows});
  Tensor xhat_q = Tensor::Uninitialized(Shape{rows * d});
  kernels::LayerNormForwardRows(rows, d, q_raw.data(), ln_gamma.data(),
                                ln_beta.data(), ln_eps, qn.data(),
                                inv_q.data(), xhat_q.data());
  Tensor kvn = qn;
  Tensor inv_kv = inv_q;
  Tensor xhat_kv = xhat_q;
  if (!self_mode) {
    kvn = Tensor::Uninitialized(kv_raw.shape());
    inv_kv = Tensor::Uninitialized(Shape{rows});
    xhat_kv = Tensor::Uninitialized(Shape{rows * d});
    kernels::LayerNormForwardRows(rows, d, kv_raw.data(), ln_gamma.data(),
                                  ln_beta.data(), ln_eps, kvn.data(),
                                  inv_kv.data(), xhat_kv.data());
    // Companion node for the q (source) stream: keeps the op tape's schedule
    // slot so shared gamma/beta accumulations stay in tape order (the
    // two-stream analysis in fused_train.h / docs/kernels.md).
    AttachNode(&qn, {q_raw, ln_gamma, ln_beta}, "fused_layer_norm",
               [qraw_impl, gamma_impl, beta_impl, rows, d, inv_q,
                xhat_q](TensorImpl& o) {
                 LayerNormBackwardInto(rows, d, o.grad.data(), qraw_impl,
                                       gamma_impl, beta_impl, xhat_q, inv_q);
               });
  }
  auto qn_impl = qn.impl();

  // Projections as single flattened (b*n, d) GEMMs over the normed streams.
  Tensor q = Tensor::Uninitialized(q_raw.shape());
  Tensor v = Tensor::Uninitialized(kv_raw.shape());
  Tensor k = Tensor::Uninitialized(kv_raw.shape());
  kernels::GemmNN(rows, d, d, qn.data(), wq.data(), q.data(),
                  /*accumulate=*/false);
  kernels::GemmNN(rows, d, d, kvn.data(), wv.data(), v.data(),
                  /*accumulate=*/false);
  kernels::GemmNN(rows, d, d, kvn.data(), wk.data(), k.data(),
                  /*accumulate=*/false);

  // The eval path's attention sweep (per-sample Q K^T, score epilogue,
  // probs · V), keeping `probs` — the one saved score tensor (the op path
  // materializes four) — for the backward; then the folded residual add
  // (the op chain's trailing ops::Add, same operand order) in one pass.
  Tensor probs = Tensor::Uninitialized(Shape{b, n, n});
  Tensor out = Tensor::Uninitialized(q_raw.shape());
  kernels::FusedAttentionEval(b, n, d, q.data(), k.data(), v.data(),
                              has_bias ? bias.data() : nullptr, scale, softmax,
                              probs.data(), out.data());
  if (has_res) {
    float* po = out.data();
    const float* pr = residual.data();
    kernels::EltwiseMap(rows * d,
                        [po, pr](int64_t i) { po[i] = pr[i] + po[i]; });
  }

  auto wq_impl = wq.impl();
  auto wk_impl = wk.impl();
  auto wv_impl = wv.impl();
  auto bias_impl = has_bias ? bias.impl() : nullptr;
  auto res_impl = has_res ? residual.impl() : nullptr;
  const bool q_rg = ln_q_rg || wq.requires_grad();
  const bool v_rg = ln_kv_rg || wv.requires_grad();
  const bool k_rg = ln_kv_rg || wk.requires_grad();
  const bool s0_rg = q_rg || k_rg;
  const bool probs_rg = s0_rg || (has_bias && bias.requires_grad());

  // Residual first (its subtree runs last); the q stream enters as the
  // companion-normed tensor in cross mode and as the raw input in self mode
  // (the fold consumed the LN); gamma/beta are leaves of this node because
  // the kv-stream (or the single shared) LN backward lives in the closure.
  std::vector<Tensor> inputs;
  if (has_res) inputs.push_back(residual);
  if (self_mode) {
    inputs.push_back(q_raw);
  } else {
    inputs.push_back(qn);
  }
  inputs.insert(inputs.end(), {kv_raw, ln_gamma, ln_beta, wq, wk, wv});
  if (has_bias) inputs.push_back(bias);

  AttachNode(&out, inputs, "fused_attention_ln", [=](TensorImpl& o) {
    const float* g = o.grad.data();

    // Folded residual add backward first (the op chain's trailing Add).
    if (has_res && NeedsGrad(res_impl)) {
      res_impl->AccumulateGrad(g, rows * d);
    }

    // bmm(probs, v) backward.
    Tensor g_probs, g_v;
    if (probs_rg) g_probs = Tensor(Shape{b, n, n});
    if (v_rg) g_v = Tensor(Shape{b, n, d});
    {
      const float* pp = probs.data();
      const float* pv = v.data();
      float* gp = probs_rg ? g_probs.data() : nullptr;
      float* gv = v_rg ? g_v.data() : nullptr;
      kernels::ForEachBatch(b, [=](int64_t bi) {
        const float* gb = g + bi * n * d;
        if (gp != nullptr) {
          kernels::GemmNT(n, n, d, gb, pv + bi * n * d, gp + bi * n * n,
                          /*accumulate=*/true);
        }
        if (gv != nullptr) {
          kernels::GemmTN(n, d, n, pp + bi * n * n, gb, gv + bi * n * d,
                          /*accumulate=*/true);
        }
      });
    }

    // The op path's normed.grad, as a closure-local accumulator: one buffer
    // in self mode (V-, K-, Q-chain contributions in tape order), the
    // kv-stream buffer in cross mode (V- then K-chain).
    Tensor g_norm;
    if ((self_mode && ln_q_rg) || (!self_mode && ln_kv_rg)) {
      g_norm = Tensor(Shape{rows, d});
    }

    // V-projection chain.
    if (v_rg) {
      Tensor g_kv_v;
      if (ln_kv_rg) {
        g_kv_v = Tensor(Shape{rows, d});
        kernels::GemmNT(rows, d, d, g_v.data(), wv_impl->data.data(),
                        g_kv_v.data(), /*accumulate=*/true);
      }
      if (NeedsGrad(wv_impl)) {
        wv_impl->EnsureGrad();
        kernels::GemmTN(d, d, rows, kvn.data(), g_v.data(),
                        wv_impl->grad.data(), /*accumulate=*/true);
      }
      if (ln_kv_rg) {
        AccumulateInto(&g_norm, g_kv_v.data(), rows * d);
      }
    }

    // Score epilogue backward + bias reduce.
    if (probs_rg) {
      if (softmax) {
        kernels::SoftmaxBackwardRows(b * n, n, probs.data(), g_probs.data());
      }
      kernels::ScaleBackwardMap(b * n * n, scale, g_probs.data());
      if (has_bias && NeedsGrad(bias_impl)) {
        bias_impl->EnsureGrad();
        kernels::BiasGradReduce(b * n * n, n, g_probs.data(),
                                bias_impl->grad.data());
      }
    }

    // bmm_nt(q, k) backward.
    Tensor g_q, g_k;
    if (s0_rg) {
      if (q_rg) g_q = Tensor(Shape{rows, d});
      if (k_rg) g_k = Tensor(Shape{rows, d});
      const float* gs = g_probs.data();
      const float* pq = q.data();
      const float* pk = k.data();
      float* gq = q_rg ? g_q.data() : nullptr;
      float* gk = k_rg ? g_k.data() : nullptr;
      kernels::ForEachBatch(b, [=](int64_t bi) {
        const float* gsb = gs + bi * n * n;
        if (gq != nullptr) {
          kernels::GemmNN(n, d, n, gsb, pk + bi * n * d, gq + bi * n * d,
                          /*accumulate=*/true);
        }
        if (gk != nullptr) {
          kernels::GemmTN(n, d, n, gsb, pq + bi * n * d, gk + bi * n * d,
                          /*accumulate=*/true);
        }
      });
    }

    // K-projection chain.
    if (k_rg) {
      Tensor g_kv_k;
      if (ln_kv_rg) {
        g_kv_k = Tensor(Shape{rows, d});
        kernels::GemmNT(rows, d, d, g_k.data(), wk_impl->data.data(),
                        g_kv_k.data(), /*accumulate=*/true);
      }
      if (NeedsGrad(wk_impl)) {
        wk_impl->EnsureGrad();
        kernels::GemmTN(d, d, rows, kvn.data(), g_k.data(),
                        wk_impl->grad.data(), /*accumulate=*/true);
      }
      if (ln_kv_rg) {
        AccumulateInto(&g_norm, g_kv_k.data(), rows * d);
      }
    }

    // Q-projection chain (last, matching the op tape's reverse order).
    if (q_rg) {
      Tensor g_xq;
      if (ln_q_rg) {
        g_xq = Tensor(Shape{rows, d});
        kernels::GemmNT(rows, d, d, g_q.data(), wq_impl->data.data(),
                        g_xq.data(), /*accumulate=*/true);
      }
      if (NeedsGrad(wq_impl)) {
        wq_impl->EnsureGrad();
        kernels::GemmTN(d, d, rows, qn.data(), g_q.data(),
                        wq_impl->grad.data(), /*accumulate=*/true);
      }
      if (ln_q_rg) {
        if (self_mode) {
          AccumulateInto(&g_norm, g_xq.data(), rows * d);
        } else if (NeedsGrad(qn_impl)) {
          // Cross mode: the q stream's LN runs in its companion node.
          qn_impl->AccumulateGrad(g_xq.data(), rows * d);
        }
      }
    }

    // Folded LN backward — the op tape's standalone LayerNorm node, which
    // the reverse schedule always runs directly after this closure.
    if (self_mode) {
      if (ln_q_rg) {
        LayerNormBackwardInto(rows, d, g_norm.data(), qraw_impl, gamma_impl,
                              beta_impl, xhat_q, inv_q);
      }
    } else if (ln_kv_rg) {
      LayerNormBackwardInto(rows, d, g_norm.data(), kvraw_impl, gamma_impl,
                            beta_impl, xhat_kv, inv_kv);
    }
  });
  return out;
}

Tensor FusedFeedForwardLayerTrain(const Tensor& x_raw, const Tensor& ln_gamma,
                                  const Tensor& ln_beta, float ln_eps,
                                  const Tensor& w1, const Tensor& b1,
                                  const Tensor& w2, const Tensor& b2,
                                  const Tensor& residual) {
  CDCL_CHECK(x_raw.defined());
  CDCL_CHECK_GE(x_raw.ndim(), 3);
  const int64_t d_in = w1.dim(0), hidden = w1.dim(1);
  const int64_t d_out = w2.dim(1);
  CDCL_CHECK_EQ(x_raw.dim(-1), d_in);
  CDCL_CHECK_EQ(ln_gamma.NumElements(), d_in);
  CDCL_CHECK_EQ(ln_beta.NumElements(), d_in);
  CDCL_CHECK_EQ(w2.dim(0), hidden);
  CDCL_CHECK_EQ(b1.NumElements(), hidden);
  CDCL_CHECK_EQ(b2.NumElements(), d_out);
  const int64_t rows = x_raw.NumElements() / d_in;

  // Folded pre-norm: normed = LN(x_raw), saved stats for the backward.
  Tensor normed = Tensor::Uninitialized(Shape{rows, d_in});
  Tensor inv_std = Tensor::Uninitialized(Shape{rows});
  Tensor xhat = Tensor::Uninitialized(Shape{rows * d_in});
  kernels::LayerNormForwardRows(rows, d_in, x_raw.data(), ln_gamma.data(),
                                ln_beta.data(), ln_eps, normed.data(),
                                inv_std.data(), xhat.data());

  // h = normed W1 + b1 (saved pre-activation), a = gelu(h) (saved for dW2).
  Tensor h = Tensor::Uninitialized(Shape{rows, hidden});
  kernels::GemmNN(rows, hidden, d_in, normed.data(), w1.data(), h.data(),
                  /*accumulate=*/false);
  kernels::BiasAddMap(rows * hidden, hidden, h.data(), b1.data());
  Tensor a = Tensor::Uninitialized(Shape{rows, hidden});
  kernels::GeluMapVec(rows * hidden, h.data(), a.data());

  // out = [residual +] (a W2 + b2) in one fused epilogue pass.
  std::vector<int64_t> out_dims = x_raw.shape().dims();
  out_dims.back() = d_out;
  Tensor out = Tensor::Uninitialized(Shape(out_dims));
  const bool has_res = residual.defined();
  if (has_res) CDCL_CHECK(residual.shape() == Shape(out_dims));
  kernels::GemmNN(rows, d_out, hidden, a.data(), w2.data(), out.data(),
                  /*accumulate=*/false);
  if (has_res) {
    float* po = out.data();
    const float* pr = residual.data();
    const float* pb2 = b2.data();
    kernels::BroadcastMap(rows * d_out, d_out, [=](int64_t i, int64_t j) {
      po[i] = pr[i] + (po[i] + pb2[j]);
    });
  } else {
    kernels::BiasAddMap(rows * d_out, d_out, out.data(), b2.data());
  }

  auto res_impl = has_res ? residual.impl() : nullptr;
  auto x_impl = x_raw.impl();
  auto gamma_impl = ln_gamma.impl();
  auto beta_impl = ln_beta.impl();
  auto w1_impl = w1.impl();
  auto b1_impl = b1.impl();
  auto w2_impl = w2.impl();
  auto b2_impl = b2.impl();
  // The folded LN output plays the op chain's x role in the skip flags.
  const bool ln_rg = x_raw.requires_grad() || ln_gamma.requires_grad() ||
                     ln_beta.requires_grad();
  const bool h1_rg = ln_rg || w1.requires_grad() || b1.requires_grad();
  const bool a_rg = h1_rg;  // gelu propagates
  const bool y0_rg = a_rg || w2.requires_grad();

  std::vector<Tensor> inputs;
  if (has_res) inputs.push_back(residual);  // first: its subtree runs last
  inputs.insert(inputs.end(), {x_raw, ln_gamma, ln_beta, w1, b1, w2, b2});

  AttachNode(&out, inputs, "fused_ffn_ln", [=](TensorImpl& o) {
    const float* g = o.grad.data();

    // Folded residual add backward first.
    if (has_res && NeedsGrad(res_impl)) {
      res_impl->AccumulateGrad(g, rows * d_out);
    }

    // Output bias add backward.
    if (NeedsGrad(b2_impl)) {
      b2_impl->EnsureGrad();
      kernels::BiasGradReduce(rows * d_out, d_out, g, b2_impl->grad.data());
    }

    // matmul(a, W2) backward.
    Tensor g_a;
    if (y0_rg) {
      if (a_rg) {
        g_a = Tensor(Shape{rows, hidden});
        kernels::GemmNT(rows, hidden, d_out, g, w2_impl->data.data(),
                        g_a.data(), /*accumulate=*/true);
      }
      if (NeedsGrad(w2_impl)) {
        w2_impl->EnsureGrad();
        kernels::GemmTN(hidden, d_out, rows, a.data(), g,
                        w2_impl->grad.data(), /*accumulate=*/true);
      }
    }
    if (!a_rg) return;

    // GELU backward in place, then the hidden bias reduce.
    kernels::GeluGradMulMapVec(rows * hidden, h.data(), g_a.data());
    if (NeedsGrad(b1_impl)) {
      b1_impl->EnsureGrad();
      kernels::BiasGradReduce(rows * hidden, hidden, g_a.data(),
                              b1_impl->grad.data());
    }

    // matmul(normed, W1) backward: g_x is the op path's normed.grad (a
    // +0.0-seeded GEMM accumulation, so the op path's AccumulateGrad
    // pass-through is the identity).
    Tensor g_x;
    if (ln_rg) {
      g_x = Tensor(Shape{rows, d_in});
      kernels::GemmNT(rows, d_in, hidden, g_a.data(), w1_impl->data.data(),
                      g_x.data(), /*accumulate=*/true);
    }
    if (NeedsGrad(w1_impl)) {
      w1_impl->EnsureGrad();
      kernels::GemmTN(d_in, hidden, rows, normed.data(), g_a.data(),
                      w1_impl->grad.data(), /*accumulate=*/true);
    }

    // Folded LN backward — the op tape's standalone LayerNorm node, always
    // this node's immediate schedule successor.
    if (ln_rg) {
      LayerNormBackwardInto(rows, d_in, g_x.data(), x_impl, gamma_impl,
                            beta_impl, xhat, inv_std);
    }
  });
  return out;
}

Tensor FusedSequencePoolTrain(const Tensor& x, const Tensor& w,
                              const Tensor& bias) {
  CDCL_CHECK_EQ(x.ndim(), 3);
  const int64_t b = x.dim(0), n = x.dim(1), d = x.dim(2);
  CDCL_CHECK_EQ(w.dim(0), d);
  CDCL_CHECK_EQ(w.dim(1), 1);
  CDCL_CHECK_EQ(bias.NumElements(), 1);
  const int64_t rows = b * n;

  // Token-importance logits as one (b*n, 1) GEMM + fused bias pass, then the
  // row softmax (eq. 4); `weights` is saved for the backward.
  Tensor weights = Tensor::Uninitialized(Shape{b, n});
  kernels::GemmNN(rows, 1, d, x.data(), w.data(), weights.data(),
                  /*accumulate=*/false);
  kernels::BiasAddMap(rows, 1, weights.data(), bias.data());
  kernels::SoftmaxRows(b, n, weights.data());

  // out[s] = weights[s] · x[s] (eqs. 5-6), per sample.
  Tensor out = Tensor::Uninitialized(Shape{b, d});
  {
    const float* pw = weights.data();
    const float* px = x.data();
    float* po = out.data();
    kernels::ForEachBatch(b, [=](int64_t bi) {
      kernels::GemmNN(1, d, n, pw + bi * n, px + bi * n * d, po + bi * d,
                      /*accumulate=*/false);
    });
  }

  auto x_impl = x.impl();
  auto w_impl = w.impl();
  auto b_impl = bias.impl();
  const bool x_rg = x.requires_grad();
  const bool logits_rg = x_rg || w.requires_grad() || bias.requires_grad();

  AttachNode(&out, {x, w, bias}, "fused_seq_pool", [=](TensorImpl& o) {
    const float* g = o.grad.data();

    // bmm(weights_row, x) backward, per sample: dweights += G X^T into a
    // zeroed scratch; dX accumulates straight into x's grad (the op chain
    // has no reshape between the bmm and x, so its dB lands there directly).
    Tensor g_w;
    if (logits_rg) g_w = Tensor(Shape{b, n});
    const bool need_x = x_rg && NeedsGrad(x_impl);
    if (need_x) x_impl->EnsureGrad();
    {
      const float* pw = weights.data();
      const float* px = x.data();
      float* gw = logits_rg ? g_w.data() : nullptr;
      float* gx = need_x ? x_impl->grad.data() : nullptr;
      kernels::ForEachBatch(b, [=](int64_t bi) {
        const float* gb = g + bi * d;
        if (gw != nullptr) {
          kernels::GemmNT(1, n, d, gb, px + bi * n * d, gw + bi * n,
                          /*accumulate=*/true);
        }
        if (gx != nullptr) {
          kernels::GemmTN(n, d, 1, pw + bi * n, gb, gx + bi * n * d,
                          /*accumulate=*/true);
        }
      });
    }
    if (!logits_rg) return;

    // Softmax backward in place on the per-sample weight rows, then the
    // bias reduce (the logits add broadcasts one scalar over all rows).
    kernels::SoftmaxBackwardRows(b, n, weights.data(), g_w.data());
    if (NeedsGrad(b_impl)) {
      b_impl->EnsureGrad();
      kernels::BiasGradReduce(rows, 1, g_w.data(), b_impl->grad.data());
    }

    // matmul(x_flat, w) backward.
    Tensor g_x;
    if (x_rg) {
      g_x = Tensor(Shape{rows, d});
      kernels::GemmNT(rows, d, 1, g_w.data(), w_impl->data.data(), g_x.data(),
                      /*accumulate=*/true);
    }
    if (NeedsGrad(w_impl)) {
      w_impl->EnsureGrad();
      kernels::GemmTN(d, 1, rows, x_impl->data.data(), g_w.data(),
                      w_impl->grad.data(), /*accumulate=*/true);
    }
    if (need_x) {
      x_impl->AccumulateGrad(g_x.data(), rows * d);
    }
  });
  return out;
}

}  // namespace ops
}  // namespace cdcl
