// cdcl_continual_serve: serve-while-train demo driver.
//
// Runs the CDCL continual experiment (synthetic digits MN->US stream) on a
// dedicated training thread while the epoll inference server answers traffic
// the whole time. After each task the trainer's model is deep-copied
// (CompactTransformer::CloneSnapshot) and atomically published; responses
// carry the snapshot version, so clients can watch the model generations
// advance live. Serves until SIGINT/SIGTERM (training finishes on its own;
// the final snapshot keeps serving).
//
// With CDCL_CKPT_DIR set, the trainer checkpoints crash-safely after every
// task, and on startup the driver restores the newest good generation and
// resumes mid-stream — kill -9 at any point loses at most the in-progress
// task. SIGINT/SIGTERM is the graceful path: the training loop stops at the
// next task boundary (writing a final checkpoint), the batcher drains, and
// the process exits 0.
//
// Knobs: CDCL_SERVE_PORT, CDCL_SERVE_WORKERS, CDCL_SERVE_QUEUE_MAX
// (backpressure bound), CDCL_SERVE_IDLE_TIMEOUT_MS
// (idle-connection reaping), CDCL_SERVE_PUBLISH_EVERY (publish cadence in
// tasks), CDCL_CKPT_DIR / CDCL_CKPT_RETAIN (checkpointing), CDCL_FAULT
// (deterministic fault injection, docs/robustness.md), CDCL_EVAL_BATCH
// (micro-batch ceiling), CDCL_TASKS / CDCL_EPOCHS (stream length / schedule).

#include <csignal>

#include "ckpt/checkpoint.h"
#include "core/cdcl_trainer.h"
#include "data/task_stream.h"
#include "serve/continual.h"
#include "util/env.h"
#include "util/fault.h"
#include "util/logging.h"

int main() {
  using namespace cdcl;  // NOLINT: tool brevity

  fault::ArmFromEnv();

  data::TaskStreamOptions stream_opt;
  stream_opt.family = "digits";
  stream_opt.source_domain = "MN";
  stream_opt.target_domain = "US";
  stream_opt.num_tasks = EnvInt("CDCL_TASKS", 3);
  stream_opt.classes_per_task = 2;
  stream_opt.train_per_class = 12;
  stream_opt.test_per_class = 6;
  stream_opt.seed = 1;
  auto stream = data::CrossDomainTaskStream::Make(stream_opt);
  if (!stream.ok()) {
    CDCL_LOG(Error) << "stream: " << stream.status().ToString();
    return 1;
  }

  core::CdclOptions trainer_opt;
  trainer_opt.base.model.image_hw = 16;
  trainer_opt.base.model.channels = 1;
  trainer_opt.base.model.embed_dim = 16;
  trainer_opt.base.model.num_layers = 1;
  trainer_opt.base.epochs = EnvInt("CDCL_EPOCHS", 6);
  trainer_opt.base.warmup_epochs = 2;
  trainer_opt.base.batch_size = 8;
  trainer_opt.base.memory_size = 40;
  trainer_opt.base.seed = 3;
  core::CdclTrainer trainer(trainer_opt);

  // Resume from the newest good checkpoint generation when a checkpoint
  // directory is configured. NotFound (no checkpoint yet) is the normal
  // first-boot case; anything else falls back to a fresh run with a warning.
  int64_t first_task = 0;
  const std::string ckpt_dir = EnvString("CDCL_CKPT_DIR", "");
  if (!ckpt_dir.empty()) {
    const Result<ckpt::CheckpointInfo> restored =
        ckpt::RestoreTrainer(ckpt_dir, &trainer);
    if (restored.ok()) {
      first_task = restored->next_task;
      CDCL_LOG(Info) << "cdcl_continual_serve: restored generation "
                     << restored->generation << " from " << restored->path
                     << ", resuming at task " << first_task;
    } else if (restored.status().code() == StatusCode::kNotFound) {
      CDCL_LOG(Info) << "cdcl_continual_serve: no checkpoint in " << ckpt_dir
                     << ", starting fresh";
    } else {
      // A failed apply can leave the trainer partially mutated; refuse to
      // train from an undefined state.
      CDCL_LOG(Error) << "cdcl_continual_serve: restore failed: "
                      << restored.status().ToString();
      return 1;
    }
  }

  // Block SIGINT/SIGTERM before any thread spawns so the signal only ever
  // reaches the sigwait below, never a worker or the trainer mid-kernel.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  serve::ContinualServer continual(serve::ContinualServer::Options::FromEnv(),
                                   &trainer);
  continual.SetPublishObserver([](uint32_t version, const auto& snapshot) {
    CDCL_LOG(Info) << "cdcl_continual_serve: published v" << version << " ("
                   << snapshot->num_tasks() << " tasks)";
  });
  if (!continual.Start()) return 1;
  CDCL_LOG(Info) << "cdcl_continual_serve: serving on port "
                 << continual.port() << ", training tasks " << first_task
                 << ".." << stream->num_tasks() - 1 << " in the background";
  cl::ExperimentOptions experiment;
  experiment.first_task = first_task;
  continual.BeginTraining(*stream, experiment);

  int sig = 0;
  sigwait(&signals, &sig);
  CDCL_LOG(Info) << "cdcl_continual_serve: signal " << sig
                 << ", shutting down";
  // Graceful path: the training loop exits at the next task boundary (the
  // after-task hook has then already committed a checkpoint for everything
  // observed), the batcher drains, and we exit 0.
  continual.RequestStop();
  Result<cl::ContinualResult> result = continual.WaitForTraining();
  if (result.ok()) {
    if (result->stopped_early) {
      CDCL_LOG(Info) << "cdcl_continual_serve: stopped early after task "
                     << result->last_task_observed
                     << " (resume with CDCL_CKPT_DIR to continue)";
    } else if (result->last_task_observed >= first_task) {
      CDCL_LOG(Info) << "cdcl_continual_serve: TIL acc "
                     << result->til_acc() << " CIL acc " << result->cil_acc();
    } else {
      // Restored a checkpoint of an already-finished stream: nothing was
      // trained or evaluated this run, so the accuracy matrices are empty —
      // the process just served the restored final model.
      CDCL_LOG(Info) << "cdcl_continual_serve: stream already complete at "
                        "restore; served the final model";
    }
  }
  const auto stats = continual.server().batcher_stats();
  continual.Stop();
  CDCL_LOG(Info) << "cdcl_continual_serve: served " << stats.requests
                 << " requests in " << stats.batches << " batches, rejected "
                 << stats.rejected << ", " << continual.publishes()
                 << " publishes, " << continual.checkpoints()
                 << " checkpoints (latest v"
                 << continual.server().published_version() << ")";
  return 0;
}
