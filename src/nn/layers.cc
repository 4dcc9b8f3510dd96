#include "nn/layers.h"

#include <cmath>

#include "tensor/kernels/layernorm.h"
#include "tensor/kernels/matmul_kernel.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace cdcl {
namespace nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng, bool bias)
    : in_features_(in_features), out_features_(out_features) {
  CDCL_CHECK(rng != nullptr);
  const float bound = std::sqrt(6.0f / static_cast<float>(in_features));
  weight_ = RegisterParameter(
      "weight", Tensor::RandUniform(Shape{in_features, out_features}, rng,
                                    -bound, bound));
  if (bias) {
    bias_ = RegisterParameter("bias", Tensor::Zeros(Shape{out_features}));
  }
}

Tensor Linear::Forward(const Tensor& x) const {
  CDCL_CHECK(x.defined());
  Tensor input = x;
  Shape original = x.shape();
  if (x.ndim() != 2) {
    CDCL_CHECK_GE(x.ndim(), 2);
    CDCL_CHECK_EQ(x.dim(-1), in_features_);
    input = ops::Reshape(x, Shape{x.NumElements() / in_features_, in_features_});
  }
  Tensor out = ops::MatMul(input, weight_);
  if (bias_.defined()) out = ops::Add(out, bias_);
  if (original.ndim() != 2) {
    std::vector<int64_t> dims = original.dims();
    dims.back() = out_features_;
    out = ops::Reshape(out, Shape(dims));
  }
  return out;
}

void Linear::EvalGemm(int64_t rows, const float* x, float* out) const {
  CDCL_CHECK(!GradModeEnabled());
  kernels::GemmNN(rows, out_features_, in_features_, x, weight_.data(), out,
                  /*accumulate=*/false);
}

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t padding, Rng* rng, bool bias)
    : stride_(stride), padding_(padding), out_channels_(out_channels) {
  CDCL_CHECK(rng != nullptr);
  const float fan_in = static_cast<float>(in_channels * kernel * kernel);
  const float bound = std::sqrt(6.0f / fan_in);
  weight_ = RegisterParameter(
      "weight",
      Tensor::RandUniform(Shape{out_channels, in_channels, kernel, kernel}, rng,
                          -bound, bound));
  if (bias) {
    bias_ = RegisterParameter("bias", Tensor::Zeros(Shape{out_channels}));
  }
}

Tensor Conv2d::Forward(const Tensor& x) const {
  return ops::Conv2d(x, weight_, bias_, stride_, padding_);
}

Tensor Conv2d::ForwardRelu(const Tensor& x) const {
  return ops::Conv2dRelu(x, weight_, bias_, stride_, padding_);
}

LayerNorm::LayerNorm(int64_t dim, float eps) : eps_(eps) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones(Shape{dim}));
  beta_ = RegisterParameter("beta", Tensor::Zeros(Shape{dim}));
}

Tensor LayerNorm::Forward(const Tensor& x) const {
  return ops::LayerNorm(x, gamma_, beta_, eps_);
}

Tensor LayerNorm::ForwardEval(const Tensor& x) const {
  CDCL_CHECK(!GradModeEnabled());
  CDCL_CHECK(x.defined());
  const int64_t d = x.dim(-1);
  Tensor out = Tensor::Uninitialized(x.shape());
  kernels::LayerNormForwardRows(x.NumElements() / d, d, x.data(),
                                gamma_.data(), beta_.data(), eps_, out.data(),
                                /*inv_std=*/nullptr, /*xhat=*/nullptr);
  return out;
}

Dropout::Dropout(float p, Rng* rng) : p_(p), rng_(rng) {
  CDCL_CHECK_GE(p, 0.0f);
  CDCL_CHECK_LT(p, 1.0f);
}

Tensor Dropout::Forward(const Tensor& x) const {
  if (!training() || p_ <= 0.0f) return x;
  return ops::Dropout(x, p_, rng_);
}

}  // namespace nn
}  // namespace cdcl
