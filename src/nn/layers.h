#ifndef CDCL_NN_LAYERS_H_
#define CDCL_NN_LAYERS_H_

#include <cstdint>

#include "nn/module.h"
#include "tensor/tensor.h"

namespace cdcl {
namespace nn {

/// Fully connected layer y = x W + b. Accepts (b, in) or (b, n, in) inputs
/// (the 3D form treats leading dims as a flattened batch).
class Linear : public Module {
 public:
  /// Kaiming-uniform initialized. `bias` may be disabled for attention
  /// projections (the paper's eqs. 2-3 carry bias in a separate b_i term).
  Linear(int64_t in_features, int64_t out_features, Rng* rng, bool bias = true);

  Tensor Forward(const Tensor& x) const;

  /// Raw no-tape GEMM over (rows, in) -> (rows, out) buffers for the fused
  /// eval path: no bias, no reshape. Must not be called under grad mode.
  void EvalGemm(int64_t rows, const float* x, float* out) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  Tensor weight() const { return weight_; }
  Tensor bias() const { return bias_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Tensor weight_;  // (in, out)
  Tensor bias_;    // (out) or undefined
};

/// 2D convolution layer (NCHW), square kernel.
class Conv2d : public Module {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride, int64_t padding, Rng* rng, bool bias = true);

  Tensor Forward(const Tensor& x) const;

  /// Forward with the ReLU activation fused into the conv node
  /// (ops::Conv2dRelu): bitwise identical to Relu(Forward(x)) with one
  /// fewer tape node and activation tensor. The tokenizer's fused training
  /// path uses this.
  Tensor ForwardRelu(const Tensor& x) const;

  int64_t out_channels() const { return out_channels_; }

 private:
  int64_t stride_;
  int64_t padding_;
  int64_t out_channels_;
  Tensor weight_;  // (out, in, k, k)
  Tensor bias_;
};

/// Layer normalization over the last dim with learnable affine.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim, float eps = 1e-5f);

  Tensor Forward(const Tensor& x) const;

  /// Eval-only forward straight through the shared row kernels
  /// (kernels/layernorm.h), skipping the tape plumbing and the inv_std/xhat
  /// saved-for-backward buffers. Bitwise identical to Forward — same kernel,
  /// same row decomposition. Must not be called under grad mode.
  Tensor ForwardEval(const Tensor& x) const;

  /// Parameter access for the fused pre-norm sublayer nodes, which fold this
  /// norm's forward+backward into the attention/MLP tape node
  /// (tensor/fused_train.h).
  const Tensor& gamma() const { return gamma_; }
  const Tensor& beta() const { return beta_; }
  float eps() const { return eps_; }

 private:
  float eps_;
  Tensor gamma_;
  Tensor beta_;
};

/// Inverted dropout; active only while the module is in training mode.
class Dropout : public Module {
 public:
  Dropout(float p, Rng* rng);

  Tensor Forward(const Tensor& x) const;

 private:
  float p_;
  Rng* rng_;
};

}  // namespace nn
}  // namespace cdcl

#endif  // CDCL_NN_LAYERS_H_
