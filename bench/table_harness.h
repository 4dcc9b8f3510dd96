// Shared harness for the paper-table benchmark binaries. Each bench binary
// declares its source->target pairs plus defaults and calls RunTableBench(),
// which fans the (method x pair x seed) cells out over a thread pool and
// prints the paper's row/column layout (TIL block, CIL block, TVT row).
//
// Env knobs (read on top of the per-bench defaults):
//   CDCL_METHODS       comma list; default per bench
//   CDCL_SEEDS         number of seeds averaged (default 1)
//   CDCL_NUM_THREADS   worker threads for the shared kernel pool (default:
//                      hardware concurrency)
//   CDCL_EVAL_BATCH    batch size for the inference-only passes (default:
//                      CDCL_BATCH; larger feeds the fused path wider GEMMs)
//   CDCL_EPOCHS, CDCL_WARMUP, CDCL_BATCH, CDCL_MEMORY,
//   CDCL_TASKS, CDCL_TRAIN_PER_CLASS, CDCL_TEST_PER_CLASS,
//   CDCL_EMBED_DIM, CDCL_LAYERS (see core/driver.h)
//
// Cells fan out over the process-wide KernelContext pool (no private pool):
// a cell body runs inside the pool's parallel region, so the tensor kernels
// it reaches collapse to serial inline execution — coarse cell parallelism
// outside, per-op parallelism only when cells are fewer than workers.

#ifndef CDCL_BENCH_TABLE_HARNESS_H_
#define CDCL_BENCH_TABLE_HARNESS_H_

#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cl/metrics.h"
#include "core/driver.h"
#include "tensor/kernels/kernel_context.h"
#include "tensor/kernels/parallel.h"
#include "util/env.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace cdcl {
namespace bench {

struct PairSpec {
  std::string source;
  std::string target;
  std::string label;  // e.g. "A->W"
};

struct TableBenchConfig {
  std::string title;
  std::string family;
  std::vector<PairSpec> pairs;
  core::ExperimentSpec spec;               // num_tasks etc. (family filled in)
  baselines::TrainerOptions options;
  std::vector<std::string> methods;        // default method set
  /// Methods shown in the TIL block only (the paper omits CDTrans from CIL).
  std::vector<std::string> til_only_methods = {"CDTrans-S", "CDTrans-B"};
  /// Optional per-pair paper reference ACC (TIL block, "Ours"), for context.
  std::vector<double> paper_til_acc;
};

struct CellResult {
  cl::MetricSummary til_acc, til_fgt, cil_acc, cil_fgt;
};

inline bool Contains(const std::vector<std::string>& v, const std::string& s) {
  for (const auto& x : v) {
    if (x == s) return true;
  }
  return false;
}

/// Runs all cells and prints the table; returns non-zero on failure.
inline int RunTableBench(TableBenchConfig config) {
  core::ApplyEnvOverrides(&config.spec, &config.options);
  config.methods = EnvStringList("CDCL_METHODS", config.methods);
  const int64_t seeds = EnvInt("CDCL_SEEDS", 1);
  const int64_t threads = kernels::GetNumThreads();
  config.spec.family = config.family;

  std::printf("== %s ==\n", config.title.c_str());
  std::printf(
      "family=%s tasks=%lld classes/task=%lld train/class=%lld epochs=%lld "
      "warmup=%lld memory=%lld seeds=%lld threads=%lld\n",
      config.family.c_str(), static_cast<long long>(config.spec.num_tasks),
      static_cast<long long>(config.spec.classes_per_task),
      static_cast<long long>(config.spec.train_per_class),
      static_cast<long long>(config.options.epochs),
      static_cast<long long>(config.options.warmup_epochs),
      static_cast<long long>(config.options.memory_size),
      static_cast<long long>(seeds), static_cast<long long>(threads));

  struct Cell {
    std::string method;
    size_t pair_index;
    uint64_t seed;
  };
  std::vector<Cell> cells;
  for (const std::string& method : config.methods) {
    for (size_t p = 0; p < config.pairs.size(); ++p) {
      for (int64_t s = 0; s < seeds; ++s) {
        cells.push_back({method, p, static_cast<uint64_t>(s + 1)});
      }
    }
  }

  std::mutex mu;
  std::map<std::pair<std::string, size_t>, std::vector<cl::ContinualResult>>
      raw;
  std::vector<std::string> errors;
  Stopwatch timer;
  kernels::ParallelFor(static_cast<int64_t>(cells.size()), 1, [&](int64_t i) {
    const Cell& cell = cells[static_cast<size_t>(i)];
    core::ExperimentSpec spec = config.spec;
    spec.source_domain = config.pairs[cell.pair_index].source;
    spec.target_domain = config.pairs[cell.pair_index].target;
    spec.seed = cell.seed;
    Result<cl::ContinualResult> result =
        core::RunMethodOnPair(cell.method, spec, config.options);
    std::lock_guard<std::mutex> lock(mu);
    if (!result.ok()) {
      errors.push_back(cell.method + "/" +
                       config.pairs[cell.pair_index].label + ": " +
                       result.status().ToString());
      return;
    }
    raw[{cell.method, cell.pair_index}].push_back(std::move(*result));
  });
  if (!errors.empty()) {
    for (const auto& e : errors) std::fprintf(stderr, "ERROR %s\n", e.c_str());
    return 1;
  }

  auto summarize = [&](const std::string& method, size_t pair) {
    CellResult out;
    std::vector<double> ta, tf, ca, cf;
    for (const cl::ContinualResult& r : raw[{method, pair}]) {
      ta.push_back(100.0 * r.til_acc());
      tf.push_back(100.0 * r.til_fgt());
      ca.push_back(100.0 * r.cil_acc());
      cf.push_back(100.0 * r.cil_fgt());
    }
    out.til_acc = cl::Summarize(ta);
    out.til_fgt = cl::Summarize(tf);
    out.cil_acc = cl::Summarize(ca);
    out.cil_fgt = cl::Summarize(cf);
    return out;
  };

  std::vector<std::string> header = {"Method"};
  for (const PairSpec& p : config.pairs) header.push_back(p.label);

  // TIL block.
  std::printf("\n-- TIL: average accuracy ACC (%%) --\n");
  TablePrinter til(header);
  for (const std::string& method : config.methods) {
    if (method == "TVT") continue;  // printed as the closing upper-bound row
    std::vector<std::string> row = {method == "CDCL" ? "Ours (ACC)" : method};
    for (size_t p = 0; p < config.pairs.size(); ++p) {
      row.push_back(StrFormat("%.2f", summarize(method, p).til_acc.mean));
    }
    til.AddRow(row);
  }
  if (Contains(config.methods, "CDCL")) {
    std::vector<std::string> row = {"Ours (FGT)"};
    for (size_t p = 0; p < config.pairs.size(); ++p) {
      row.push_back(StrFormat("%.2f", summarize("CDCL", p).til_fgt.mean));
    }
    til.AddRow(row);
  }
  if (!config.paper_til_acc.empty() &&
      config.paper_til_acc.size() == config.pairs.size()) {
    std::vector<std::string> row = {"paper Ours (ACC)"};
    for (double v : config.paper_til_acc) row.push_back(StrFormat("%.2f", v));
    til.AddRow(row);
  }
  til.Print();

  // CIL block (paper omits CDTrans here).
  std::printf("\n-- CIL: average accuracy ACC (%%) --\n");
  TablePrinter cil(header);
  for (const std::string& method : config.methods) {
    if (method == "TVT" || Contains(config.til_only_methods, method)) continue;
    std::vector<std::string> row = {method == "CDCL" ? "Ours (ACC)" : method};
    for (size_t p = 0; p < config.pairs.size(); ++p) {
      row.push_back(StrFormat("%.2f", summarize(method, p).cil_acc.mean));
    }
    cil.AddRow(row);
  }
  if (Contains(config.methods, "CDCL")) {
    std::vector<std::string> row = {"Ours (FGT)"};
    for (size_t p = 0; p < config.pairs.size(); ++p) {
      row.push_back(StrFormat("%.2f", summarize("CDCL", p).cil_fgt.mean));
    }
    cil.AddRow(row);
  }
  cil.Print();

  // Static upper bound.
  if (Contains(config.methods, "TVT")) {
    std::printf("\n-- Static UDA upper bound --\n");
    TablePrinter tvt(header);
    std::vector<std::string> row = {"TVT (Static UDA)"};
    for (size_t p = 0; p < config.pairs.size(); ++p) {
      row.push_back(StrFormat("%.2f", summarize("TVT", p).til_acc.mean));
    }
    tvt.AddRow(row);
    tvt.Print();
  }

  std::printf("\ntotal wall time: %.1fs\n", timer.ElapsedSeconds());
  return 0;
}

}  // namespace bench
}  // namespace cdcl

#endif  // CDCL_BENCH_TABLE_HARNESS_H_
