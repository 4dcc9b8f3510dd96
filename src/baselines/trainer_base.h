#ifndef CDCL_BASELINES_TRAINER_BASE_H_
#define CDCL_BASELINES_TRAINER_BASE_H_

#include <memory>
#include <string>
#include <vector>

#include "cl/experiment.h"
#include "cl/memory.h"
#include "data/dataset.h"
#include "models/compact_transformer.h"
#include "optim/lr_schedule.h"
#include "optim/optimizer.h"
#include "tensor/arena.h"
#include "uda/distance.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace cdcl {
namespace baselines {

/// Options shared by every trainer (CDCL and baselines). The paper's 125
/// epochs / lr 5e-5 regime targets ViT-scale training; these CPU-scale
/// defaults keep the schedule *shape* (flat warm-up then cosine) at rates
/// suited to the compact model. Benches override via CDCL_* env knobs.
struct TrainerOptions {
  models::ModelConfig model;
  int64_t epochs = 12;
  int64_t warmup_epochs = 4;  // source-only warm-up (Algorithm 1 line 7)
  int64_t batch_size = 16;
  // The paper warms up at a *lower* rate because its ViT starts from
  // pretrained weights; our compact model trains from scratch, so the
  // warm-up phase runs at the full base rate.
  float warmup_lr = 3e-3f;
  float base_lr = 3e-3f;
  float min_lr = 1e-4f;
  float weight_decay = 0.01f;
  int64_t memory_size = 200;
  int64_t replay_batch = 8;
  /// Batch size for the inference-only passes (evaluation protocols and
  /// dataset encoding). 0 keeps the training batch_size — the seed behavior,
  /// bitwise reproducible. Larger values feed the fused batched eval path
  /// wider GEMMs (a throughput knob: CDCL_EVAL_BATCH); results may then
  /// differ from the seed only by the float-rounding of a different kernel
  /// tier kicking in, never in expectation.
  int64_t eval_batch = 0;
  uint64_t seed = 0;
  uda::DistanceMetric pseudo_metric = uda::DistanceMetric::kCosine;
  /// Fraction of aligned pairs kept after distance filtering (eq. 19 noise
  /// rejection); 1.0 keeps every supported pair.
  double pair_keep_fraction = 0.7;
  cl::MemoryPolicy memory_policy = cl::MemoryPolicy::kConfidenceTopK;
};

/// Shared plumbing for all trainers: owns the model, optimizer, per-task LR
/// schedule, and implements the two evaluation protocols.
class TrainerBase : public cl::ContinualTrainer {
 public:
  TrainerBase(std::string name, const TrainerOptions& options);

  const std::string& name() const override { return name_; }

  /// TIL (eq. 7): task id given -> task-specific attention keys + task head.
  /// Batches run through the fused batched inference path
  /// (CompactTransformer::EncodeSelfBatched), bitwise identical to the
  /// op-by-op forward.
  double EvaluateTil(const data::TensorDataset& test, int64_t task_id) override;

  /// CIL (eq. 8): latest keys + growing head, global labels (the paper's
  /// f_CIL "with the latest K_T and b_T instantiated"). Same fused batched
  /// eval path as EvaluateTil.
  double EvaluateCil(const data::TensorDataset& test) override;

  const models::CompactTransformer& model() const { return *model_; }
  const TrainerOptions& options() const { return options_; }
  const cl::RehearsalMemory& memory() const { return memory_; }
  int64_t tasks_seen() const { return tasks_seen_; }

  // --- Checkpoint surface (src/ckpt/checkpoint.cc) -----------------------
  // Everything a checkpoint must capture to make a resumed run bitwise
  // identical: parameters + freeze flags (via the model), optimizer moments,
  // the RNG stream, and the rehearsal memory. The LR schedule is
  // deliberately absent — checkpoints are taken at task boundaries and the
  // next StartTask rebuilds it before any optimizer step.
  const optim::AdamW& optimizer() const { return *optimizer_; }
  const Rng& rng() const { return rng_; }
  Rng* mutable_rng() { return &rng_; }
  models::CompactTransformer* mutable_model() { return model_.get(); }
  optim::AdamW* mutable_optimizer() { return optimizer_.get(); }
  cl::RehearsalMemory* mutable_memory() { return &memory_; }

  /// Rebuilds the grown task structure on a FRESHLY-constructed trainer by
  /// replaying AddTask per checkpointed task (which also reproduces the
  /// freeze flags of finished tasks) and rebinding the optimizer to the
  /// resulting trainable set. Aborts if this trainer already has tasks.
  void RestoreTaskStructure(const std::vector<int64_t>& classes_per_task);

  /// Trainer-specific state riding in the checkpoint's extra section (e.g.
  /// CdclTrainer's loss trace). Base: empty. ImportExtraState returns false
  /// on malformed payload (the checkpoint layer turns that into an error).
  virtual void ExportExtraState(ByteWriter* writer) const;
  virtual bool ImportExtraState(ByteReader* reader);

  /// Stacks an entire dataset into one batch (datasets here are small).
  static data::Batch FullBatch(const data::TensorDataset& dataset);

  /// Memory batch layout shared by the replay helpers (public so free
  /// helper functions can stack into it).
  struct ReplayBatch {
    Tensor source_images;
    Tensor target_images;
    std::vector<int64_t> labels;       // global
    std::vector<int64_t> task_labels;  // within-task
    std::vector<int64_t> task_ids;
    std::vector<const cl::MemoryRecord*> records;
  };

 protected:
  /// Resolved batch size for inference-only passes (eval_batch, falling back
  /// to the training batch_size).
  int64_t EvalBatchSize() const {
    return options_.eval_batch > 0 ? options_.eval_batch : options_.batch_size;
  }

  /// Grows the model for a new task and rebinds optimizer parameters; sets
  /// up the per-task warm-up+cosine schedule given steps per epoch.
  void StartTask(int64_t num_classes, int64_t steps_per_epoch);

  /// Applies the schedule for global step `step_in_task` and runs one
  /// optimizer step on the accumulated gradients.
  void OptimizerStep(int64_t step_in_task);

  /// Encodes a whole dataset without gradients: features (n, d) via the
  /// self-attention path of `task_keys`, plus global/task labels.
  struct EncodedDataset {
    Tensor features;
    std::vector<int64_t> labels;
    std::vector<int64_t> task_labels;
  };
  EncodedDataset EncodeDataset(const data::TensorDataset& dataset,
                               int64_t task_keys);

  /// Center-aware pseudo-labels + source/target pair set for one task
  /// (paper eqs. 17-19), computed from the current model state.
  struct AlignmentPlan {
    std::vector<std::pair<int64_t, int64_t>> pairs;  // (source idx, target idx)
    std::vector<int64_t> pseudo_labels;              // task-local, per target
  };
  AlignmentPlan BuildAlignment(const data::CrossDomainTask& task,
                               int64_t task_id, int refine_iters = 1);

  /// Memory batch sampled from a single stored task (images stacked).
  /// Returns false when that task has no records.
  bool SampleReplayFromTask(int64_t task_id, int64_t n, ReplayBatch* out);

  /// Uniform memory batch (images stacked). Returns false when empty.
  bool SampleReplay(int64_t n, ReplayBatch* out);

  std::string name_;
  TrainerOptions options_;
  Rng rng_;
  std::unique_ptr<models::CompactTransformer> model_;
  std::unique_ptr<optim::AdamW> optimizer_;
  std::unique_ptr<optim::WarmupCosineLr> schedule_;
  cl::RehearsalMemory memory_;
  int64_t tasks_seen_ = 0;
  /// Step workspace shared by every trainer loop: each training step (and
  /// each inference batch of the eval/encode loops) runs under an
  /// `ArenaScope(&arena_)`, so step-scoped tensors are bump allocations that
  /// vanish at the scope's reset instead of heap round-trips. Parameters,
  /// optimizer state and datasets live outside the scopes and stay
  /// heap-owned. The SetArenaEnabled(false) test seam disables the scopes
  /// (bitwise-identical results either way; tests/arena_test.cc).
  Arena arena_;
};

}  // namespace baselines
}  // namespace cdcl

#endif  // CDCL_BASELINES_TRAINER_BASE_H_
