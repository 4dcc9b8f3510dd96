// Table IV: ablation of CDCL's loss blocks and attention mechanism on
// MNIST<->USPS, plus extra design-choice ablations that isolate one
// reproduction choice each (pseudo-label distance, memory policy, key
// freezing, linear attention scores). Every cell averages CDCL_SEEDS seeds
// (1..N, stream and trainer seeded alike), as table_harness.h does.
//
// Paper reference (real data, MN->US TIL): full 91.91; -L_CIL 81.88;
// -L_TIL 59.17; -L_R 68.71; simple attention 62.72. Expected shape: the
// full objective wins; dropping L_TIL hurts most; simple attention erases
// the contribution.

#include <cstdio>
#include <map>
#include <mutex>

#include "cl/experiment.h"
#include "core/cdcl_trainer.h"
#include "core/driver.h"
#include "table_harness.h"
#include "tensor/kernels/parallel.h"
#include "util/env.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace cdcl;  // NOLINT: bench brevity

struct Variant {
  std::string label;
  core::CdclOptions options;
};

}  // namespace

int main() {
  core::ExperimentSpec spec;
  spec.family = "digits";
  spec.num_tasks = 5;
  spec.classes_per_task = 2;
  spec.train_per_class = 24;
  spec.test_per_class = 12;

  baselines::TrainerOptions base;
  base.model.channels = 1;
  base.model.embed_dim = 24;
  base.model.num_layers = 2;
  base.epochs = 16;
  base.warmup_epochs = 5;
  base.memory_size = 100;
  core::ApplyEnvOverrides(&spec, &base);

  std::vector<Variant> variants;
  {
    core::CdclOptions full;
    full.base = base;
    variants.push_back({"full (L_CIL+L_TIL+L_R)", full});

    core::CdclOptions a = full;
    a.use_cil_loss = false;
    variants.push_back({"A: -L_CIL", a});

    core::CdclOptions b = full;
    b.use_til_loss = false;
    variants.push_back({"B: -L_TIL", b});

    core::CdclOptions c = full;
    c.use_rehearsal = false;
    variants.push_back({"C: -L_R", c});

    core::CdclOptions simple = full;
    simple.simple_attention = true;
    variants.push_back({"simple attention", simple});

    // Extra design-choice ablations (not in the paper's table).
    core::CdclOptions euclid = full;
    euclid.base.pseudo_metric = uda::DistanceMetric::kEuclidean;
    variants.push_back({"euclidean pseudo-dist", euclid});

    core::CdclOptions reservoir = full;
    reservoir.base.memory_policy = cl::MemoryPolicy::kReservoir;
    variants.push_back({"reservoir memory", reservoir});

    core::CdclOptions nofreeze = full;
    nofreeze.base.model.freeze_old_keys = false;
    variants.push_back({"trainable old keys", nofreeze});

    core::CdclOptions linear_attn = full;
    linear_attn.base.model.softmax_attention = false;
    variants.push_back({"linear attention (literal eq.2)", linear_attn});
  }

  const char* kPairs[][2] = {{"MN", "US"}, {"US", "MN"}};
  const int64_t threads = kernels::GetNumThreads();
  const int64_t seeds = EnvInt("CDCL_SEEDS", 1);

  std::printf("== Table IV - ablation study (synthetic digits, seeds=%lld, "
              "threads=%lld) ==\n",
              static_cast<long long>(seeds), static_cast<long long>(threads));

  std::map<std::pair<size_t, int>, std::vector<cl::ContinualResult>> results;
  std::mutex mu;
  std::vector<std::string> errors;
  struct Cell {
    size_t variant;
    int pair;
    uint64_t seed;
  };
  std::vector<Cell> cells;
  for (size_t v = 0; v < variants.size(); ++v) {
    for (int p = 0; p < 2; ++p) {
      for (int64_t s = 0; s < seeds; ++s) {
        cells.push_back({v, p, static_cast<uint64_t>(s + 1)});
      }
    }
  }

  Stopwatch timer;
  kernels::ParallelFor(static_cast<int64_t>(cells.size()), 1, [&](int64_t i) {
    const Cell& cell = cells[static_cast<size_t>(i)];
    data::TaskStreamOptions stream_opt;
    stream_opt.family = spec.family;
    stream_opt.source_domain = kPairs[cell.pair][0];
    stream_opt.target_domain = kPairs[cell.pair][1];
    stream_opt.num_tasks = spec.num_tasks;
    stream_opt.classes_per_task = spec.classes_per_task;
    stream_opt.train_per_class = spec.train_per_class;
    stream_opt.test_per_class = spec.test_per_class;
    stream_opt.seed = cell.seed;
    auto stream = data::CrossDomainTaskStream::Make(stream_opt);
    if (!stream.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      errors.push_back(stream.status().ToString());
      return;
    }
    core::CdclOptions opt = variants[cell.variant].options;
    opt.base.model.channels = 1;
    opt.base.seed = cell.seed;
    core::CdclTrainer trainer(opt);
    auto result = cl::RunContinualExperiment(&trainer, *stream);
    std::lock_guard<std::mutex> lock(mu);
    if (!result.ok()) {
      errors.push_back(result.status().ToString());
      return;
    }
    results[{cell.variant, cell.pair}].push_back(std::move(*result));
  });
  if (!errors.empty()) {
    for (const auto& e : errors) std::fprintf(stderr, "ERROR %s\n", e.c_str());
    return 1;
  }

  TablePrinter table({"Experiment", "MN->US TIL", "MN->US CIL", "US->MN TIL",
                      "US->MN CIL"});
  // Seed mean of one metric over a (variant, pair) cell, as a percentage.
  auto mean = [&results](size_t v, int pair,
                         double (cl::ContinualResult::*metric)() const) {
    const std::vector<cl::ContinualResult>& runs = results.at({v, pair});
    double sum = 0.0;
    for (const cl::ContinualResult& r : runs) sum += (r.*metric)();
    return StrFormat("%.2f", 100.0 * sum / static_cast<double>(runs.size()));
  };
  for (size_t v = 0; v < variants.size(); ++v) {
    table.AddRow({variants[v].label, mean(v, 0, &cl::ContinualResult::til_acc),
                  mean(v, 0, &cl::ContinualResult::cil_acc),
                  mean(v, 1, &cl::ContinualResult::til_acc),
                  mean(v, 1, &cl::ContinualResult::cil_acc)});
  }
  table.Print();
  std::printf("\npaper (real data, TIL/CIL MN->US): full 91.91/66.73, "
              "A 81.88/63.71, B 59.17/46.33, C 68.71/19.59, simple "
              "62.72/29.82\n");
  std::printf("total wall time: %.1fs\n", timer.ElapsedSeconds());
  return 0;
}
