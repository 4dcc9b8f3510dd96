#ifndef CDCL_NN_ATTENTION_H_
#define CDCL_NN_ATTENTION_H_

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"

namespace cdcl {
namespace nn {

/// Inter- intra-task cross-attention (paper eqs. 2-3).
///
/// Queries Q and values V are *global* projections shared by every task.
/// Keys K_i and the additive attention bias b_i (shape 1xn) are *per-task*
/// projections: a fresh pair is instantiated when a task arrives and the
/// previous pairs are frozen, which is how the paper preserves the feature
/// alignment learned for earlier tasks.
///
/// The paper's eq. 2 writes the attention weights without a softmax (a linear
/// attention score); eq. 4 only normalizes the *pooling* weights. We default
/// to the standard softmax-normalized scores for stability and expose the
/// literal linear variant through `softmax_scores=false` (ablated in
/// bench_table4_ablation).
class TaskConditionedAttention : public Module {
 public:
  TaskConditionedAttention(int64_t dim, int64_t seq_len, Rng* rng,
                           bool softmax_scores = true,
                           bool freeze_old_keys = true);

  /// Instantiates K_i / b_i for a new task; freezes earlier pairs when
  /// configured. Returns the new task index.
  int64_t AddTask();

  int64_t num_tasks() const { return static_cast<int64_t>(wk_tasks_.size()); }
  int64_t dim() const { return dim_; }

  /// Self-attention (eq. 2): single stream provides Q, K_i, b_i and V.
  /// x: (b, n, d) -> (b, n, d). Always the op chain, under grad too: it is
  /// the reference the fused sublayer node is tested against.
  Tensor SelfAttention(const Tensor& x, int64_t task) const;

  /// Cross-attention (eq. 3): Q from the source stream; K_i, b_i and V from
  /// the target stream. Both (b, n, d) -> (b, n, d). Op chain, like
  /// SelfAttention.
  Tensor CrossAttention(const Tensor& x_source, const Tensor& x_target,
                        int64_t task) const;

  /// Fused training sublayer with the block's pre-norm folded in:
  /// residual + Attend(LN(q_raw), LN(kv_raw)) recorded as one tape node
  /// (plus a companion LN node for the q stream in the cross case — see
  /// tensor/fused_train.h). Raw (un-normed) hidden states go in; `residual`
  /// may be undefined (the cross stream's first layer contributes pure
  /// cross-attention). Only valid under grad recording;
  /// TransformerEncoderLayer routes SelfForward/CrossForward through this.
  Tensor AttendBlockTrain(const Tensor& q_raw, const Tensor& kv_raw,
                          int64_t task, const Tensor& residual,
                          const LayerNorm& pre_norm) const;

  /// Fused batched self-attention for inference: the Q/K_i/V projections run
  /// as single (b*n, d) GEMMs and the score epilogue (bias + scale + softmax)
  /// plus the scores·V product execute as one fused kernel sweep, with no
  /// intermediate tensors. Bitwise identical to SelfAttention (see
  /// kernels/fused_eval.h); requires grad recording to be off.
  Tensor SelfAttentionFused(const Tensor& x, int64_t task) const;

 private:
  Tensor Attend(const Tensor& q_input, const Tensor& kv_input,
                int64_t task) const;

  int64_t dim_;
  int64_t seq_len_;
  Rng* rng_;
  bool softmax_scores_;
  bool freeze_old_keys_;
  std::unique_ptr<Linear> wq_;  // global queries
  std::unique_ptr<Linear> wv_;  // global values
  std::vector<std::unique_ptr<Linear>> wk_tasks_;  // task-related keys
  std::vector<Tensor> bias_tasks_;                 // task-related bias (n)
};

/// Two-layer GELU MLP used inside encoder blocks.
class FeedForward : public Module {
 public:
  FeedForward(int64_t dim, int64_t hidden_dim, Rng* rng);

  /// fc2(gelu(fc1(x))) as the op chain, the reference for the fused nodes.
  Tensor Forward(const Tensor& x) const;

  /// Fused training sublayer: the encoder block's pre-norm MLP sublayer,
  /// residual + Forward(LN(x_raw)), as one tape node
  /// (ops::FusedFeedForwardLayerTrain). Only valid under grad recording.
  Tensor ForwardBlockTrain(const Tensor& x_raw, const Tensor& residual,
                           const LayerNorm& pre_norm) const;

  /// Inference-path forward: both GEMMs run over the flattened (b*n, d) rows
  /// with the bias+GELU / bias epilogues fused into single parallel passes.
  /// Bitwise identical to Forward; requires grad recording to be off.
  Tensor ForwardFused(const Tensor& x) const;

 private:
  std::unique_ptr<Linear> fc1_;
  std::unique_ptr<Linear> fc2_;
};

/// Pre-norm transformer encoder layer around the task-conditioned attention.
///
/// Self mode is the standard block. Cross mode follows the CDTrans-style
/// three-branch weave the paper builds on: the mixed stream accumulates, per
/// layer, the cross-attention of the current source hidden state (queries)
/// against the current target hidden state (keys/values), followed by the
/// shared feed-forward.
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(int64_t dim, int64_t seq_len, int64_t mlp_dim,
                          Rng* rng, bool softmax_scores, bool freeze_old_keys);

  int64_t AddTask() { return attention_->AddTask(); }
  int64_t num_tasks() const { return attention_->num_tasks(); }

  /// Standard pre-norm block: x + attn(LN(x)); then + mlp(LN(.)).
  Tensor SelfForward(const Tensor& x, int64_t task) const;

  /// SelfForward through the fused batched inference path (fused attention +
  /// fused MLP epilogues). Bitwise identical to SelfForward; requires grad
  /// recording to be off.
  Tensor SelfForwardFused(const Tensor& x, int64_t task) const;

  /// Mixed-stream update for cross mode; `mixed` may be undefined for the
  /// first layer (treated as zero).
  Tensor CrossForward(const Tensor& source_hidden, const Tensor& target_hidden,
                      const Tensor& mixed, int64_t task) const;

 private:
  std::unique_ptr<TaskConditionedAttention> attention_;
  std::unique_ptr<FeedForward> mlp_;
  std::unique_ptr<LayerNorm> norm1_;
  std::unique_ptr<LayerNorm> norm2_;
};

/// CCT sequence pooling (eqs. 4-6): an attention-weighted average over the
/// token axis replaces the ViT class token. x: (b, n, d) -> z: (b, d).
class SequencePool : public Module {
 public:
  SequencePool(int64_t dim, Rng* rng);

  /// Under grad recording this takes the fused training path
  /// (ops::FusedSequencePoolTrain: one node, hand-written backward),
  /// bitwise identical to the op chain; the nn::SetFusedTrain test seam
  /// restores the op chain.
  Tensor Forward(const Tensor& x) const;

  /// Inference-path pooling: importance logits as one (b*n, 1) GEMM with a
  /// fused bias pass, then the per-sample weighted average. Bitwise identical
  /// to Forward; requires grad recording to be off.
  Tensor ForwardFused(const Tensor& x) const;

 private:
  std::unique_ptr<Linear> g_;  // token-importance projection d -> 1
};

/// Multi-head TIL output f_TIL (eq. 7): one classifier per task, selected by
/// the task identifier available at TIL inference time.
class MultiHeadOutput : public Module {
 public:
  explicit MultiHeadOutput(int64_t feature_dim);

  /// Adds a head with `num_classes` outputs; returns its task index.
  int64_t AddTask(int64_t num_classes, Rng* rng);

  int64_t num_tasks() const { return static_cast<int64_t>(heads_.size()); }
  int64_t num_classes(int64_t task) const;

  /// Logits for one task head: (b, u_task).
  Tensor Forward(const Tensor& z, int64_t task) const;

 private:
  int64_t feature_dim_;
  std::vector<std::unique_ptr<Linear>> heads_;
};

/// Single growing CIL output f_CIL (eq. 8): concatenation of per-task class
/// blocks; no task identifier needed at inference.
class GrowingHead : public Module {
 public:
  explicit GrowingHead(int64_t feature_dim);

  int64_t AddTask(int64_t num_classes, Rng* rng);

  int64_t num_tasks() const { return static_cast<int64_t>(blocks_.size()); }
  int64_t total_classes() const { return total_classes_; }
  /// First global class index of a task's block.
  int64_t class_offset(int64_t task) const;
  int64_t block_classes(int64_t task) const;

  /// Logits over all classes seen so far: (b, total_classes).
  Tensor Forward(const Tensor& z) const;
  /// Logits restricted to the first `num_tasks` blocks (used when replaying
  /// logits recorded before later heads existed).
  Tensor ForwardUpTo(const Tensor& z, int64_t num_tasks) const;

 private:
  int64_t feature_dim_;
  int64_t total_classes_ = 0;
  std::vector<std::unique_ptr<Linear>> blocks_;
  std::vector<int64_t> offsets_;
};

}  // namespace nn
}  // namespace cdcl

#endif  // CDCL_NN_ATTENTION_H_
