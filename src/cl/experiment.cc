#include "cl/experiment.h"

#include "util/fault.h"
#include "util/logging.h"
#include "util/status.h"

namespace cdcl {
namespace cl {

Result<ContinualResult> RunContinualExperiment(
    ContinualTrainer* trainer, const data::CrossDomainTaskStream& stream) {
  return RunContinualExperiment(trainer, stream, ExperimentOptions{});
}

Result<ContinualResult> RunContinualExperiment(
    ContinualTrainer* trainer, const data::CrossDomainTaskStream& stream,
    const ExperimentOptions& options) {
  CDCL_CHECK(trainer != nullptr);
  CDCL_CHECK_GE(options.first_task, 0);
  const int64_t num_tasks = stream.num_tasks();
  ContinualResult result{AccuracyMatrix(num_tasks), AccuracyMatrix(num_tasks)};
  result.last_task_observed = options.first_task - 1;
  for (int64_t t = options.first_task; t < num_tasks; ++t) {
    if (options.stop_requested && options.stop_requested()) {
      result.stopped_early = true;
      break;
    }
    // Deterministic trainer-death seam: the degradation tests arm this point
    // to make the training thread fail mid-stream while serving continues.
    if (fault::ShouldFail("trainer.observe_task")) {
      return Status::Internal("injected trainer failure before task " +
                              std::to_string(t));
    }
    Status st = trainer->ObserveTask(stream.task(t));
    if (!st.ok()) return st;
    result.last_task_observed = t;
    // The after-task hook runs at the quiescent point between training and
    // evaluation — the serve co-scheduler snapshots/publishes here.
    if (options.after_task) options.after_task(t);
    if (!options.evaluate) continue;
    // Lower-triangle evaluation: every pass below is inference-only, so the
    // trainers run it through the fused batched eval path (bitwise identical
    // to the training-time forward).
    for (int64_t j = 0; j <= t; ++j) {
      const data::TensorDataset& test = stream.task(j).target_test;
      result.til.Set(t, j, trainer->EvaluateTil(test, j));
      result.cil.Set(t, j, trainer->EvaluateCil(test));
    }
  }
  return result;
}

}  // namespace cl
}  // namespace cdcl
