// The three workloads and the state they share with the per-layer probes.
//
//   train_digits          repeated Table I MN->US 5-task CDCL streams, then a
//                         short serving phase on the last trained model
//   serve_mixed           open-loop traffic against an InferenceServer that
//                         holds a 5-task digits snapshot trained in set-up
//   serve_under_training  the same traffic against a ContinualServer that
//                         trains a 32-task officehome stream meanwhile
//
// Every run prints every end-to-end metric (or, traced, every per-layer
// metric); README.md lists which layer metric should move which end-to-end
// metric on which workload.

#ifndef CDCL_PERFBENCH_WORKLOADS_H_
#define CDCL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/cdcl_trainer.h"
#include "data/task_stream.h"
#include "loadgen.h"
#include "report.h"
#include "serve/continual.h"
#include "serve/server.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;    // checkpoint directories; removed by the caller
  std::string trace_dir;  // where the traced run writes its spans
};

bool KnownWorkload(const std::string& name);

/// The Table I digits model and trainer options (1x16x16 for digits; the
/// officehome stream uses the same network on 3 channels).
cdcl::core::CdclOptions TableOneOptions(int64_t channels, uint64_t seed);

/// Runs one workload and fills every metric.
RunResult RunWorkload(const Options& options);

// --- Shared with probes.cc ---------------------------------------------------

/// Published snapshots by version, for the post-run correctness check.
class VersionRegistry {
 public:
  void Add(uint32_t version,
           std::shared_ptr<const cdcl::models::CompactTransformer> model);
  std::shared_ptr<const cdcl::models::CompactTransformer> Get(
      uint32_t version) const;

 private:
  mutable std::mutex mutex_;
  std::map<uint32_t, std::shared_ptr<const cdcl::models::CompactTransformer>>
      models_;  // guarded by mutex_
};

/// Everything the timed part of a run leaves behind for the probes: the
/// latest trainer (quiescent; evaluation needs it non-const) and its stream,
/// and the served snapshot.
struct ProbeInputs {
  cdcl::core::CdclTrainer* trainer = nullptr;
  const cdcl::data::CrossDomainTaskStream* stream = nullptr;
  std::shared_ptr<const cdcl::models::CompactTransformer> snapshot;
  std::string scratch;
};

/// Per-layer replays from public calls (traced run only): alignment, one CDCL
/// pair step on a separate model, batched self-encoding, the projection GEMMs,
/// the serving engine at batch 1/8/32, and, when `replay_commit` is set, a
/// checkpoint commit and one lower-triangle evaluation row on the quiesced
/// trainer. Adds the metrics to `result`.
void RunProbes(const ProbeInputs& inputs, uint64_t seed, bool replay_commit,
               RunResult* result);

}  // namespace perfbench

#endif  // CDCL_PERFBENCH_WORKLOADS_H_
