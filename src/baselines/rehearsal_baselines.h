#ifndef CDCL_BASELINES_REHEARSAL_BASELINES_H_
#define CDCL_BASELINES_REHEARSAL_BASELINES_H_

#include <memory>
#include <string>

#include "baselines/trainer_base.h"

namespace cdcl {
namespace baselines {

/// The paper's continual-learning comparison methods. These are *source-
/// domain* learners: they have no unsupervised-adaptation machinery, so they
/// train on the labeled source stream (plus rehearsal) and are evaluated on
/// the target domain - exactly the protocol position that produces the low
/// numbers in Tables I-III. All run on the shared-key backbone
/// (per_task_keys = false): per-task attention keys are CDCL's contribution,
/// not theirs.
///
///   kFinetune  sequential fine-tuning, no memory (lower bound, extra)
///   kEr        plain experience replay: CE on memory samples
///   kDer       dark-experience replay: MSE on stored CIL logits [4]
///   kDerPp     DER++: logit MSE + CE on memory labels [4]
///   kHal       hindsight-anchor-style: ER + feature-anchor stability [8]
///   kMsl       supervised cross-domain CL [39], approximated as ER +
///              class-prototype consistency (replayed features pulled to
///              their batch class means, standing in for its cross-domain
///              generalization term)
enum class RehearsalMethod { kFinetune, kEr, kDer, kDerPp, kHal, kMsl };

/// Loss weights for the replay terms.
struct RehearsalHyperparams {
  float der_alpha = 0.5f;      // logit-replay weight (DER / DER++)
  float derpp_beta = 0.5f;     // label-replay weight (DER++)
  float anchor_lambda = 0.3f;  // feature-anchor weight (HAL / MSL)
};

class RehearsalTrainer : public TrainerBase {
 public:
  RehearsalTrainer(RehearsalMethod method, const TrainerOptions& options,
                   const RehearsalHyperparams& hyper = {});

  Status ObserveTask(const data::CrossDomainTask& task) override;

  RehearsalMethod method() const { return method_; }

 private:
  /// Method-specific replay loss for one sampled past-task batch; undefined
  /// tensor when the method has no replay or memory is empty.
  Tensor ReplayLoss();
  void StoreTaskMemory(const data::CrossDomainTask& task);

  RehearsalMethod method_;
  RehearsalHyperparams hyper_;
};

std::string RehearsalMethodName(RehearsalMethod method);

std::unique_ptr<RehearsalTrainer> MakeRehearsalTrainer(
    RehearsalMethod method, const TrainerOptions& options,
    const RehearsalHyperparams& hyper = {});

}  // namespace baselines
}  // namespace cdcl

#endif  // CDCL_BASELINES_REHEARSAL_BASELINES_H_
