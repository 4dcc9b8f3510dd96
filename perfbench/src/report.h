// Result plumbing shared by every workload: the metric list printed as the
// final JSON line, summary statistics, and the report header (host, knobs,
// model shape, calibration).

#ifndef CDCL_PERFBENCH_REPORT_H_
#define CDCL_PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "models/compact_transformer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One reported number. Values are printed with every digit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one benchmark run, printed as the last stdout line.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void Add(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void AddLayer(const std::string& name, double value,
                const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  /// Records a failed operation and marks the run incorrect.
  void Fail(const std::string& why);
};

/// Percentile with linear interpolation (q in [0, 1]); 0 for an empty input.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

/// FMA throughput of a register-resident loop on `threads` threads, in
/// GFLOP/s: the compute-capacity calibration that lets runs on noisy shared
/// vCPUs be normalised.
double FmaGflops(int threads, double seconds);

/// FMA calibration at 1 and `threads` threads, taken once the host delivers
/// at least 70% of linear scaling (or after `max_wait_s`, when it does not).
/// A virtualised host may take idle vCPUs away (measured: after about 3-4 s
/// of light load, 4 threads run at the speed of 1) and hands them back only
/// after about 3 s of demand; the calibration loop is that demand, so every
/// run starts with the same capacity. KeepVcpus() is the short all-thread
/// burst the serving phases insert between load chunks so the vCPUs are never
/// idle long enough to be taken away mid-run.
struct Calibration {
  double fma_1t = 0.0;
  double fma_nt = 0.0;
  double wait_s = 0.0;  // time spent waiting for the vCPUs to come back
};
Calibration Calibrate(int threads, double max_wait_s);
double KeepVcpus();  // returns the burst's GFLOP/s

/// Prints the report header: host descriptor, resolved CDCL_* knobs, model
/// shape, workload and seed, and the FMA calibration at 1 and N threads.
void PrintHeader(const std::string& workload, uint64_t seed, double seconds,
                 bool trace, const cdcl::models::ModelConfig& model,
                 const Calibration& calibration);

/// The final JSON line. `trace` selects the per-layer metric set.
std::string ResultJson(const RunResult& result, bool trace);

}  // namespace perfbench

#endif  // CDCL_PERFBENCH_REPORT_H_
