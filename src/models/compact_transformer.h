#ifndef CDCL_MODELS_COMPACT_TRANSFORMER_H_
#define CDCL_MODELS_COMPACT_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/module.h"
#include "nn/tokenizer.h"

namespace cdcl {
namespace models {

/// Architecture hyper-parameters. The paper's "small" instance (MNIST<->USPS)
/// used 7 encoder layers on 28x28x1; the "large" one 14 layers on 224x224x3.
/// Our CPU-scale defaults shrink depth/width but keep every structural
/// element (conv tokenizer, task-keyed attention, seq-pool, dual heads).
struct ModelConfig {
  int64_t image_hw = 16;
  int64_t channels = 3;
  int64_t embed_dim = 32;
  int64_t num_layers = 2;
  int64_t mlp_ratio = 2;
  int64_t tokenizer_layers = 2;
  int64_t tokenizer_kernel = 3;
  /// Softmax-normalized attention scores (see TaskConditionedAttention docs;
  /// false = the paper's literal linear eq. 2 scores).
  bool softmax_attention = true;
  /// Freeze K_i / b_i of finished tasks (the paper's alignment protection).
  bool freeze_old_keys = true;
  /// Grow a fresh K_i / b_i per task (CDCL). false = a single shared key set
  /// for all tasks (standard backbone used by DER/DER++/HAL/MSL/CDTrans and
  /// the "simple attention" ablation row of Table IV).
  bool per_task_keys = true;

  /// Small/base presets mirroring CDTrans-S / CDTrans-B style size variants.
  static ModelConfig Small(int64_t image_hw, int64_t channels);
  static ModelConfig Base(int64_t image_hw, int64_t channels);
};

/// The CDCL network (paper Fig. 1): conv tokenizer -> stack of task-
/// conditioned transformer encoder layers -> sequence pooling -> f_TIL
/// (multi-head) and f_CIL (single growing head).
class CompactTransformer : public nn::Module {
 public:
  CompactTransformer(const ModelConfig& config, Rng* rng);

  /// Grows task-specific parameters (attention keys/biases + both heads) for
  /// a task with `num_classes` classes. Returns the new task index.
  int64_t AddTask(int64_t num_classes);

  /// Deep-copies this model into a self-contained, eval-mode snapshot with
  /// its OWN parameter storage: same config, the same task structure
  /// (replayed AddTask-for-AddTask) and bitwise-identical parameter values,
  /// but no tensor sharing with this instance — an optimizer stepping this
  /// model in place can never reach the clone's weights. This is the
  /// publish-isolation contract of InferenceServer::Publish: a trainer
  /// clones between tasks (while quiescent) and hands the clone to the
  /// server, then keeps training the original freely
  /// (tests/continual_serve_test.cc pins the immutability). The clone owns
  /// its Rng (the source's is never retained), so its lifetime is fully
  /// independent of the trainer.
  std::shared_ptr<CompactTransformer> CloneSnapshot() const;

  int64_t num_tasks() const { return til_head_->num_tasks(); }
  const ModelConfig& config() const { return config_; }
  int64_t feature_dim() const { return config_.embed_dim; }

  /// Single-stream encoding a(x) (self-attention path): (b,c,h,w) -> (b,d).
  /// When grad recording is off (and the nn::SetFusedEval test seam has not
  /// disabled fused eval), the transformer stack runs
  /// through the fused batched inference path: flattened (b*n, d) projection
  /// GEMMs, fused score/bias/softmax epilogues and fused MLP epilogues —
  /// bitwise identical to the op-by-op path (tests/batched_eval_test.cc).
  Tensor EncodeSelf(const Tensor& images, int64_t task) const;

  /// Explicit batched-eval entry point: EncodeSelf under a NoGradGuard, so
  /// callers holding no guard of their own still hit the fused batched path.
  /// Evaluation loops (EvaluateTil/EvaluateCil, dataset encoding, memory
  /// snapshotting) use this.
  Tensor EncodeSelfBatched(const Tensor& images, int64_t task) const;

  /// Two-stream encoding: source/target evolve through self-attention while
  /// the mixed stream accumulates per-layer cross-attention (eq. 3).
  ///
  /// This is the training hot path of a CDCL run. Under grad recording (and
  /// unless the nn::SetFusedTrain test seam disabled it), every pre-norm
  /// encoder sublayer — the cross-stream eq. 3 attention, both self
  /// streams' attention, and every MLP — records ONE tape node through the
  /// fused training forwards (tensor/fused_train.h): flattened (b*n, d)
  /// projection GEMMs, the attention sweep and bias/GELU epilogues of the
  /// inference path, and hand-written backward closures that replay
  /// the op chain's kernels. Losses, gradients and post-step parameters are
  /// bitwise identical to the op-by-op tape (tests/arena_test.cc).
  struct CrossEncoding {
    Tensor z_source;
    Tensor z_target;
    Tensor z_mixed;
  };
  CrossEncoding EncodeCross(const Tensor& source_images,
                            const Tensor& target_images, int64_t task) const;

  /// f_TIL(z) for a given task head: (b, u_task) logits (eq. 7).
  Tensor TilLogits(const Tensor& z, int64_t task) const;
  /// f_CIL(z) over all classes seen so far (eq. 8).
  Tensor CilLogits(const Tensor& z) const;
  /// f_CIL restricted to the first `tasks` blocks (for logit replay).
  Tensor CilLogitsUpTo(const Tensor& z, int64_t tasks) const;

  int64_t total_classes() const { return cil_head_->total_classes(); }
  int64_t class_offset(int64_t task) const {
    return cil_head_->class_offset(task);
  }
  int64_t task_classes(int64_t task) const {
    return til_head_->num_classes(task);
  }

 private:
  Tensor EncodeTokensSelf(const Tensor& tokens, int64_t task) const;
  /// Maps a logical task id to the attention-key index (identity with
  /// per-task keys; always 0 for shared-key backbones).
  int64_t KeyTask(int64_t task) const;

  ModelConfig config_;
  Rng* rng_;
  /// Set on CloneSnapshot() products so rng_ never dangles past the source.
  std::unique_ptr<Rng> owned_rng_;
  std::unique_ptr<nn::ConvTokenizer> tokenizer_;
  std::vector<std::unique_ptr<nn::TransformerEncoderLayer>> layers_;
  std::unique_ptr<nn::SequencePool> pool_;
  std::unique_ptr<nn::MultiHeadOutput> til_head_;
  std::unique_ptr<nn::GrowingHead> cil_head_;
};

}  // namespace models
}  // namespace cdcl

#endif  // CDCL_MODELS_COMPACT_TRANSFORMER_H_
