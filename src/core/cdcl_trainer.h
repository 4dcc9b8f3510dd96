#ifndef CDCL_CORE_CDCL_TRAINER_H_
#define CDCL_CORE_CDCL_TRAINER_H_

#include <memory>
#include <vector>

#include "baselines/trainer_base.h"

namespace cdcl {
namespace core {

/// Configuration of the CDCL algorithm on top of the shared TrainerOptions.
/// The boolean toggles correspond to Table IV's ablation rows.
struct CdclOptions {
  baselines::TrainerOptions base;

  bool use_cil_loss = true;   // L_CIL (eq. 15); off = ablation row A
  bool use_til_loss = true;   // L_TIL (eq. 16); off = ablation row B
  bool use_rehearsal = true;  // L_R (eq. 23);  off = ablation row C
  /// "Simple attention" ablation: shared keys, no cross-attention stream and
  /// therefore no mixing terms - the standard-attention row of Table IV.
  bool simple_attention = false;
  /// k-means refinement rounds for the center-aware pseudo-labels.
  int pseudo_refine_iters = 1;
};

/// The paper's method (Algorithm 1): per task, a source-only warm-up, then
/// epochs of paired cross-attention training with center-aware pseudo-labeled
/// pairs (eqs. 9-19), plus rehearsal of stored (x_S, x_T, y_S, logits) tuples
/// with L_R^ST + L_R^D + L_R^Z (eqs. 20-23) from the second task on.
class CdclTrainer : public baselines::TrainerBase {
 public:
  explicit CdclTrainer(const CdclOptions& options);

  Status ObserveTask(const data::CrossDomainTask& task) override;

  const CdclOptions& cdcl_options() const { return cdcl_options_; }

  /// Fraction of target samples whose pseudo-label matched their (hidden)
  /// true label in the last alignment round; diagnostic only.
  double last_pseudo_label_accuracy() const {
    return last_pseudo_label_accuracy_;
  }
  /// Pair-set size of the last alignment round.
  int64_t last_pair_count() const { return last_pair_count_; }

  /// Per-step training losses in observation order, across every epoch and
  /// task this trainer has seen. Diagnostic: tests/arena_test.cc pins this
  /// trajectory bitwise across the arena and fused-train test seams and
  /// thread counts.
  const std::vector<float>& loss_trace() const { return loss_trace_; }

  /// Checkpoint extra section: loss trace + alignment diagnostics, so a
  /// restored run's trace matches the uninterrupted run's bitwise.
  void ExportExtraState(ByteWriter* writer) const override;
  bool ImportExtraState(ByteReader* reader) override;

 private:
  /// Source-only warm-up objective: L^CIL_S + L^TIL_S (Algorithm 1 lines 8-9).
  Tensor WarmupLoss(const data::Batch& batch, int64_t task_id);
  /// Sampling half of the rehearsal loss: draws the past-task pick and the
  /// replay sample from rng_ (the only RNG the rehearsal path consumes).
  /// Returns false when the memory is empty or the picked task has no
  /// records. Runs before the step's arena scope opens, so the replay
  /// tensors are heap allocations.
  bool SampleRehearsal(ReplayBatch* rb, int64_t* past_task);
  /// Loss half: rehearsal loss (eqs. 20-23) on a pre-sampled batch. Touches
  /// no RNG.
  Tensor RehearsalLossOn(const ReplayBatch& rb, int64_t past_task,
                         int64_t current_task);
  /// One source-only epoch (shared by the warm-up phase, which adds
  /// rehearsal from the second task on, and the empty-pair-set fallback,
  /// which does not): full pass of source batches, each an arena-scoped
  /// step of WarmupLoss -> Backward -> OptimizerStep.
  void RunSourceOnlyEpoch(const data::CrossDomainTask& task, int64_t task_id,
                          bool with_rehearsal, int64_t* step);
  void StoreTaskMemory(const data::CrossDomainTask& task, int64_t task_id,
                       const AlignmentPlan& plan);

  CdclOptions cdcl_options_;
  double last_pseudo_label_accuracy_ = 0.0;
  int64_t last_pair_count_ = 0;
  std::vector<float> loss_trace_;
};

std::unique_ptr<CdclTrainer> MakeCdclTrainer(const CdclOptions& options);

}  // namespace core
}  // namespace cdcl

#endif  // CDCL_CORE_CDCL_TRAINER_H_
