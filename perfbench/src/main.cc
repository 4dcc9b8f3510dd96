// cdcl_perfbench: one end-to-end benchmark of the CDCL system.
//
//   cdcl_perfbench --workload <train_digits|serve_mixed|serve_under_training>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  --scratch <dir> [--trace-dir <dir>]
//
// Prints a report header (lines starting with '#') and, as the last line,
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
// every end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
// perfbench/run.py builds this binary and is the intended entry point.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "report.h"
#include "tensor/kernels/kernel_context.h"
#include "trace.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "cdcl_perfbench: %s\nusage: cdcl_perfbench --workload "
               "<train_digits|serve_mixed|serve_under_training> --seed <n> "
               "--seconds <s> --trace <0|1> --scratch <dir> "
               "[--trace-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // keep the header if we abort
  perfbench::Options options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (flag == "--scratch") {
      options.scratch = value;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!perfbench::KnownWorkload(options.workload)) {
    return Usage("unknown or missing --workload");
  }
  if (!have_seed || options.seconds <= 0.0 || options.scratch.empty()) {
    return Usage("--seed, a positive --seconds and --scratch are required");
  }
  std::filesystem::create_directories(options.scratch);

  const perfbench::Calibration calibration = perfbench::Calibrate(
      static_cast<int>(cdcl::kernels::GetNumThreads()), 8.0);
  const int64_t channels =
      options.workload == "serve_under_training" ? 3 : 1;
  perfbench::PrintHeader(options.workload, options.seed, options.seconds,
                         options.trace,
                         perfbench::TableOneOptions(channels, 0).base.model,
                         calibration);

  perfbench::Tracer::Enable(options.trace);
  perfbench::RunResult result = perfbench::RunWorkload(options);
  if (options.trace) {
    result.AddLayer("kernels.fma_gflops_1t", calibration.fma_1t, "GFLOP/s");
    result.AddLayer("kernels.fma_gflops_nt", calibration.fma_nt, "GFLOP/s");
    if (!options.trace_dir.empty()) {
      std::filesystem::create_directories(options.trace_dir);
      const std::string path = options.trace_dir + "/" + options.workload +
                               "-" + std::to_string(options.seed) + ".json";
      if (perfbench::Tracer::WriteJson(path)) {
        std::printf("# spans written to %s\n", path.c_str());
      }
    }
  }
  std::printf("%s\n", perfbench::ResultJson(result, options.trace).c_str());
  return 0;
}
