#include "nn/attention.h"

#include <cmath>

#include "tensor/fused_train.h"
#include "tensor/kernels/fused_eval.h"
#include "tensor/kernels/matmul_kernel.h"
#include "tensor/kernels/parallel.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace cdcl {
namespace nn {

TaskConditionedAttention::TaskConditionedAttention(int64_t dim, int64_t seq_len,
                                                   Rng* rng, bool softmax_scores,
                                                   bool freeze_old_keys)
    : dim_(dim),
      seq_len_(seq_len),
      rng_(rng),
      softmax_scores_(softmax_scores),
      freeze_old_keys_(freeze_old_keys) {
  CDCL_CHECK(rng != nullptr);
  // Attention projections carry no affine bias; the task bias b_i plays that
  // role in the score matrix (eq. 2).
  wq_ = std::make_unique<Linear>(dim, dim, rng, /*bias=*/false);
  wv_ = std::make_unique<Linear>(dim, dim, rng, /*bias=*/false);
  RegisterModule("wq", wq_.get());
  RegisterModule("wv", wv_.get());
}

int64_t TaskConditionedAttention::AddTask() {
  if (freeze_old_keys_ && !wk_tasks_.empty()) {
    // Freeze K_{1..i-1} and b_{1..i-1}: the paper preserves previous feature-
    // aligned knowledge in these projections.
    for (Tensor& t : wk_tasks_.back()->Parameters()) t.set_requires_grad(false);
    bias_tasks_.back().set_requires_grad(false);
  }
  const int64_t task = num_tasks();
  wk_tasks_.push_back(std::make_unique<Linear>(dim_, dim_, rng_, /*bias=*/false));
  RegisterModule(StrFormat("wk_task%lld", static_cast<long long>(task)),
                 wk_tasks_.back().get());
  bias_tasks_.push_back(RegisterParameter(
      StrFormat("bias_task%lld", static_cast<long long>(task)),
      Tensor::Zeros(Shape{seq_len_})));
  return task;
}

Tensor TaskConditionedAttention::Attend(const Tensor& q_input,
                                        const Tensor& kv_input,
                                        int64_t task) const {
  CDCL_CHECK_GE(task, 0);
  CDCL_CHECK_LT(task, num_tasks());
  CDCL_CHECK_EQ(q_input.ndim(), 3);
  CDCL_CHECK_EQ(kv_input.ndim(), 3);
  CDCL_CHECK_EQ(q_input.dim(2), dim_);
  CDCL_CHECK_EQ(kv_input.dim(1), seq_len_);

  const float scale = 1.0f / std::sqrt(static_cast<float>(dim_));
  Tensor q = wq_->Forward(q_input);                         // (b,n,d)
  Tensor v = wv_->Forward(kv_input);                        // (b,n,d)
  Tensor k = wk_tasks_[static_cast<size_t>(task)]->Forward(kv_input);
  const Tensor& bias = bias_tasks_[static_cast<size_t>(task)];

  // scores = (Q K_i^T + b_i) / sqrt(d); b_i broadcasts over query positions.
  // The fused kernel reads K's rows directly instead of materializing the
  // (b,n,d) transpose on every forward.
  Tensor scores = ops::BatchMatMulTransB(q, k);  // (b,n,n)
  scores = ops::Add(scores, bias);
  scores = ops::MulScalar(scores, scale);
  if (softmax_scores_) scores = ops::Softmax(scores);
  return ops::BatchMatMul(scores, v);  // (b,n,d)
}

Tensor TaskConditionedAttention::SelfAttention(const Tensor& x,
                                               int64_t task) const {
  return Attend(x, x, task);
}

Tensor TaskConditionedAttention::CrossAttention(const Tensor& x_source,
                                                const Tensor& x_target,
                                                int64_t task) const {
  return Attend(x_source, x_target, task);
}

Tensor TaskConditionedAttention::AttendBlockTrain(
    const Tensor& q_raw, const Tensor& kv_raw, int64_t task,
    const Tensor& residual, const LayerNorm& pre_norm) const {
  CDCL_CHECK(GradModeEnabled());
  CDCL_CHECK_GE(task, 0);
  CDCL_CHECK_LT(task, num_tasks());
  return ops::FusedAttentionLayerTrain(
      q_raw, kv_raw, pre_norm.gamma(), pre_norm.beta(), pre_norm.eps(),
      wq_->weight(), wk_tasks_[static_cast<size_t>(task)]->weight(),
      wv_->weight(), bias_tasks_[static_cast<size_t>(task)],
      1.0f / std::sqrt(static_cast<float>(dim_)), softmax_scores_, residual);
}

Tensor TaskConditionedAttention::SelfAttentionFused(const Tensor& x,
                                                    int64_t task) const {
  CDCL_CHECK(!GradModeEnabled());
  CDCL_CHECK_GE(task, 0);
  CDCL_CHECK_LT(task, num_tasks());
  CDCL_CHECK_EQ(x.ndim(), 3);
  CDCL_CHECK_EQ(x.dim(1), seq_len_);
  CDCL_CHECK_EQ(x.dim(2), dim_);
  const int64_t b = x.dim(0), n = x.dim(1);
  const int64_t rows = b * n;

  // The three projections as single (b*n, d) GEMMs — the same flattened call
  // Linear::Forward issues, minus the reshape/tape plumbing. The GEMMs
  // overwrite every element, so the outputs skip the zero-fill.
  Tensor q = Tensor::Uninitialized(x.shape());
  Tensor k = Tensor::Uninitialized(x.shape());
  Tensor v = Tensor::Uninitialized(x.shape());
  const float* px = x.data();
  wq_->EvalGemm(rows, px, q.data());
  wk_tasks_[static_cast<size_t>(task)]->EvalGemm(rows, px, k.data());
  wv_->EvalGemm(rows, px, v.data());

  Tensor probs = Tensor::Uninitialized(Shape{b, n, n});
  Tensor out = Tensor::Uninitialized(x.shape());
  kernels::FusedAttentionEval(
      b, n, dim_, q.data(), k.data(), v.data(),
      bias_tasks_[static_cast<size_t>(task)].data(),
      1.0f / std::sqrt(static_cast<float>(dim_)), softmax_scores_,
      probs.data(), out.data());
  return out;
}

FeedForward::FeedForward(int64_t dim, int64_t hidden_dim, Rng* rng) {
  fc1_ = std::make_unique<Linear>(dim, hidden_dim, rng);
  fc2_ = std::make_unique<Linear>(hidden_dim, dim, rng);
  RegisterModule("fc1", fc1_.get());
  RegisterModule("fc2", fc2_.get());
}

Tensor FeedForward::Forward(const Tensor& x) const {
  return fc2_->Forward(ops::Gelu(fc1_->Forward(x)));
}

Tensor FeedForward::ForwardBlockTrain(const Tensor& x_raw,
                                      const Tensor& residual,
                                      const LayerNorm& pre_norm) const {
  CDCL_CHECK(GradModeEnabled());
  return ops::FusedFeedForwardLayerTrain(
      x_raw, pre_norm.gamma(), pre_norm.beta(), pre_norm.eps(), fc1_->weight(),
      fc1_->bias(), fc2_->weight(), fc2_->bias(), residual);
}

Tensor FeedForward::ForwardFused(const Tensor& x) const {
  CDCL_CHECK(!GradModeEnabled());
  const int64_t d = fc1_->in_features();
  const int64_t hidden = fc1_->out_features();
  CDCL_CHECK_EQ(x.dim(-1), d);
  const int64_t rows = x.NumElements() / d;
  Tensor h = Tensor::Uninitialized(Shape{rows, hidden});
  fc1_->EvalGemm(rows, x.data(), h.data());
  kernels::BiasGeluMap(rows * hidden, hidden, h.data(), fc1_->bias().data());
  Tensor y = Tensor::Uninitialized(x.shape());
  fc2_->EvalGemm(rows, h.data(), y.data());
  kernels::BiasAddMap(rows * d, d, y.data(), fc2_->bias().data());
  return y;
}

TransformerEncoderLayer::TransformerEncoderLayer(int64_t dim, int64_t seq_len,
                                                 int64_t mlp_dim, Rng* rng,
                                                 bool softmax_scores,
                                                 bool freeze_old_keys) {
  attention_ = std::make_unique<TaskConditionedAttention>(
      dim, seq_len, rng, softmax_scores, freeze_old_keys);
  mlp_ = std::make_unique<FeedForward>(dim, mlp_dim, rng);
  norm1_ = std::make_unique<LayerNorm>(dim);
  norm2_ = std::make_unique<LayerNorm>(dim);
  RegisterModule("attention", attention_.get());
  RegisterModule("mlp", mlp_.get());
  RegisterModule("norm1", norm1_.get());
  RegisterModule("norm2", norm2_.get());
}

Tensor TransformerEncoderLayer::SelfForward(const Tensor& x,
                                            int64_t task) const {
  if (GradModeEnabled() && FusedTrainEnabled()) {
    // Fused training blocks: each pre-norm sublayer (LayerNorm + attention +
    // residual, LayerNorm + MLP + residual) records one tape node, bitwise
    // identical to the op chain below.
    Tensor h = attention_->AttendBlockTrain(x, x, task, x, *norm1_);
    return mlp_->ForwardBlockTrain(h, h, *norm2_);
  }
  Tensor h = ops::Add(x, attention_->SelfAttention(norm1_->Forward(x), task));
  return ops::Add(h, mlp_->Forward(norm2_->Forward(h)));
}

Tensor TransformerEncoderLayer::SelfForwardFused(const Tensor& x,
                                                 int64_t task) const {
  // Pre-norms run the shared row kernels directly (LayerNorm::ForwardEval):
  // bitwise identical to ops::LayerNorm, minus the tape/saved-state tensors
  // — the last scalar-path norms on the eval side.
  Tensor h = ops::Add(
      x, attention_->SelfAttentionFused(norm1_->ForwardEval(x), task));
  return ops::Add(h, mlp_->ForwardFused(norm2_->ForwardEval(h)));
}

Tensor TransformerEncoderLayer::CrossForward(const Tensor& source_hidden,
                                             const Tensor& target_hidden,
                                             const Tensor& mixed,
                                             int64_t task) const {
  if (GradModeEnabled() && FusedTrainEnabled()) {
    // Fused training blocks, the EncodeCross hot path: the cross-attention
    // sublayer folds the mixed-stream residual and the target-stream
    // pre-norm in (one companion node carries the source-stream pre-norm;
    // `mixed` undefined on the first layer -> pure cross-attention), then
    // the fused MLP sublayer with its pre-norm folded.
    Tensor m = attention_->AttendBlockTrain(source_hidden, target_hidden,
                                            task, mixed, *norm1_);
    return mlp_->ForwardBlockTrain(m, m, *norm2_);
  }
  Tensor cross = attention_->CrossAttention(norm1_->Forward(source_hidden),
                                            norm1_->Forward(target_hidden),
                                            task);
  Tensor m = mixed.defined() ? ops::Add(mixed, cross) : cross;
  return ops::Add(m, mlp_->Forward(norm2_->Forward(m)));
}

SequencePool::SequencePool(int64_t dim, Rng* rng) {
  g_ = std::make_unique<Linear>(dim, 1, rng);
  RegisterModule("g", g_.get());
}

Tensor SequencePool::Forward(const Tensor& x) const {
  CDCL_CHECK_EQ(x.ndim(), 3);
  if (GradModeEnabled() && FusedTrainEnabled()) {
    // Fused training path: one tape node for projection + bias + softmax +
    // weighted average, bitwise identical to the chain below.
    return ops::FusedSequencePoolTrain(x, g_->weight(), g_->bias());
  }
  const int64_t b = x.dim(0), n = x.dim(1), d = x.dim(2);
  Tensor logits = ops::Reshape(g_->Forward(x), Shape{b, n});  // (b,n)
  Tensor weights = ops::Softmax(logits);                      // eq. 4
  Tensor wrow = ops::Reshape(weights, Shape{b, 1, n});
  Tensor z = ops::BatchMatMul(wrow, x);  // eq. 5: (b,1,d)
  return ops::Reshape(z, Shape{b, d});   // eq. 6 flatten
}

Tensor SequencePool::ForwardFused(const Tensor& x) const {
  CDCL_CHECK(!GradModeEnabled());
  CDCL_CHECK_EQ(x.ndim(), 3);
  const int64_t b = x.dim(0), n = x.dim(1), d = x.dim(2);
  Tensor weights = Tensor::Uninitialized(Shape{b, n});
  g_->EvalGemm(b * n, x.data(), weights.data());
  kernels::BiasAddMap(b * n, 1, weights.data(), g_->bias().data());
  kernels::SoftmaxRows(b, n, weights.data());  // eq. 4
  Tensor z = Tensor::Uninitialized(Shape{b, d});
  const float* pw = weights.data();
  const float* px = x.data();
  float* pz = z.data();
  kernels::ForEachBatch(b, [=](int64_t bi) {  // eq. 5-6
    kernels::GemmNN(1, d, n, pw + bi * n, px + bi * n * d, pz + bi * d,
                    /*accumulate=*/false);
  });
  return z;
}

MultiHeadOutput::MultiHeadOutput(int64_t feature_dim)
    : feature_dim_(feature_dim) {}

int64_t MultiHeadOutput::AddTask(int64_t num_classes, Rng* rng) {
  const int64_t task = num_tasks();
  heads_.push_back(std::make_unique<Linear>(feature_dim_, num_classes, rng));
  RegisterModule(StrFormat("head%lld", static_cast<long long>(task)),
                 heads_.back().get());
  return task;
}

int64_t MultiHeadOutput::num_classes(int64_t task) const {
  CDCL_CHECK_GE(task, 0);
  CDCL_CHECK_LT(task, num_tasks());
  return heads_[static_cast<size_t>(task)]->out_features();
}

Tensor MultiHeadOutput::Forward(const Tensor& z, int64_t task) const {
  CDCL_CHECK_GE(task, 0);
  CDCL_CHECK_LT(task, num_tasks());
  return heads_[static_cast<size_t>(task)]->Forward(z);
}

GrowingHead::GrowingHead(int64_t feature_dim) : feature_dim_(feature_dim) {}

int64_t GrowingHead::AddTask(int64_t num_classes, Rng* rng) {
  const int64_t task = num_tasks();
  offsets_.push_back(total_classes_);
  total_classes_ += num_classes;
  blocks_.push_back(std::make_unique<Linear>(feature_dim_, num_classes, rng));
  RegisterModule(StrFormat("block%lld", static_cast<long long>(task)),
                 blocks_.back().get());
  return task;
}

int64_t GrowingHead::class_offset(int64_t task) const {
  CDCL_CHECK_GE(task, 0);
  CDCL_CHECK_LT(task, num_tasks());
  return offsets_[static_cast<size_t>(task)];
}

int64_t GrowingHead::block_classes(int64_t task) const {
  CDCL_CHECK_GE(task, 0);
  CDCL_CHECK_LT(task, num_tasks());
  return blocks_[static_cast<size_t>(task)]->out_features();
}

Tensor GrowingHead::Forward(const Tensor& z) const {
  return ForwardUpTo(z, num_tasks());
}

Tensor GrowingHead::ForwardUpTo(const Tensor& z, int64_t tasks) const {
  CDCL_CHECK_GT(tasks, 0);
  CDCL_CHECK_LE(tasks, num_tasks());
  std::vector<Tensor> parts;
  parts.reserve(static_cast<size_t>(tasks));
  for (int64_t t = 0; t < tasks; ++t) {
    parts.push_back(blocks_[static_cast<size_t>(t)]->Forward(z));
  }
  return parts.size() == 1 ? parts[0] : ops::ConcatLast(parts);
}

}  // namespace nn
}  // namespace cdcl
