// Quickstart: run CDCL on the synthetic MNIST->USPS stream (5 tasks of 2
// digit classes) and print the continual-learning accuracy matrices and the
// ACC / FGT metrics of Table I's rightmost block.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/quickstart
//
// Environment knobs: CDCL_EPOCHS, CDCL_WARMUP, CDCL_TRAIN_PER_CLASS, ...
// (see core/driver.h and the knob table in the top-level README.md).
// Evaluation rides the fused batched inference path; CDCL_EVAL_BATCH widens
// its GEMMs.

#include <cstdio>

#include "cl/experiment.h"
#include "core/cdcl_trainer.h"
#include "core/driver.h"
#include "util/stopwatch.h"

int main() {
  using namespace cdcl;  // NOLINT: example brevity

  // 1. Describe the cross-domain continual stream.
  core::ExperimentSpec spec;
  spec.family = "digits";
  spec.source_domain = "MN";
  spec.target_domain = "US";
  spec.num_tasks = 5;
  spec.classes_per_task = 2;
  spec.train_per_class = 24;
  spec.test_per_class = 12;
  spec.seed = 1;

  // 2. Configure the trainer (paper Algorithm 1).
  baselines::TrainerOptions options;
  options.model.channels = 1;  // digits are grayscale
  options.model.embed_dim = 24;
  options.model.num_layers = 2;
  options.epochs = 16;
  options.warmup_epochs = 5;
  options.memory_size = 100;
  core::ApplyEnvOverrides(&spec, &options);

  std::printf("CDCL quickstart: %s %s->%s, %lld tasks x %lld classes\n",
              spec.family.c_str(), spec.source_domain.c_str(),
              spec.target_domain.c_str(),
              static_cast<long long>(spec.num_tasks),
              static_cast<long long>(spec.classes_per_task));

  Stopwatch timer;
  Result<cl::ContinualResult> result =
      core::RunMethodOnPair("CDCL", spec, options);
  if (!result.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  // 3. Report the R matrices (rows: after task i; columns: eval task j) and
  // the paper's two metrics.
  std::printf("\nTIL accuracy matrix (%%):\n%s",
              result->til.ToString().c_str());
  std::printf("\nCIL accuracy matrix (%%):\n%s",
              result->cil.ToString().c_str());
  std::printf("\nTIL: ACC=%.2f%%  FGT=%.2f%%\n", 100.0 * result->til_acc(),
              100.0 * result->til_fgt());
  std::printf("CIL: ACC=%.2f%%  FGT=%.2f%%\n", 100.0 * result->cil_acc(),
              100.0 * result->cil_fgt());
  std::printf("(paper, real MNIST<->USPS: TIL ACC 91.91, FGT 7.38)\n");
  std::printf("\ndone in %.1fs\n", timer.ElapsedSeconds());
  return 0;
}
