#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "nn/module.h"
#include "serve/continual.h"
#include "tensor/arena.h"
#include "tensor/kernels/kernel_context.h"
#include "tensor/kernels/matmul_kernel.h"
#include "tensor/kernels/matmul_quant.h"
#include "tensor/kernels/vec_math.h"
#include "util/pipeline.h"

namespace perfbench {

void RunResult::Fail(const std::string& why) {
  ++failed;
  correct = false;
  std::printf("# FAILED: %s\n", why.c_str());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (std::isinf(values[hi])) return frac > 0.0 ? values[hi] : values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

namespace {

/// 8 independent FMA chains of 8 lanes each: enough to keep two FMA ports
/// busy, and the compiler vectorizes the inner loop at -O2 and above.
double FmaLoop(int64_t iters) {
  float acc[64];
  for (int i = 0; i < 64; ++i) acc[i] = 1.0f + 1e-3f * static_cast<float>(i);
  const float a = 0.999999f, b = 1e-7f;
  for (int64_t it = 0; it < iters; ++it) {
    for (int i = 0; i < 64; ++i) acc[i] = acc[i] * a + b;
  }
  double sum = 0.0;
  for (float v : acc) sum += v;
  return sum;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

const char* IsaTier() {
  if (!cdcl::kernels::CpuHasAvx2Fma()) return "scalar";
  return __builtin_cpu_supports("avx512f") ? "avx512" : "avx2";
}

const char* Env(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "(unset)";
}

const char* OnOff(bool v) { return v ? "on" : "off"; }

}  // namespace

double FmaGflops(int threads, double seconds) {
  // Size one chunk to ~10 ms, then run chunks until `seconds` elapse.
  const int64_t iters = 200000;
  std::vector<double> rates(static_cast<size_t>(threads), 0.0);
  std::vector<double> sums(static_cast<size_t>(threads), 0.0);
  std::vector<std::thread> team;
  for (int t = 0; t < threads; ++t) {
    team.emplace_back([&, t] {
      const Clock::time_point start = Clock::now();
      int64_t chunks = 0;
      double acc = 0.0;
      while (SecondsSince(start) < seconds) {
        acc += FmaLoop(iters);
        ++chunks;
      }
      rates[static_cast<size_t>(t)] =
          static_cast<double>(chunks * iters) * 64.0 * 2.0 /
          SecondsSince(start) / 1e9;
      sums[static_cast<size_t>(t)] = acc;
    });
  }
  for (std::thread& th : team) th.join();
  double total = 0.0, checksum = 0.0;
  for (size_t t = 0; t < rates.size(); ++t) {
    total += rates[t];
    checksum += sums[t];
  }
  // The loop results feed the return value, so no loop can be elided.
  return total + 0.0 * checksum;
}

Calibration Calibrate(int threads, double max_wait_s) {
  Calibration c;
  const Clock::time_point start = Clock::now();
  c.fma_1t = FmaGflops(1, 0.25);
  do {
    c.fma_nt = FmaGflops(threads, 0.25);
  } while (c.fma_nt < 0.7 * threads * c.fma_1t &&
           SecondsSince(start) < max_wait_s);
  c.wait_s = SecondsSince(start);
  return c;
}

double KeepVcpus() {
  return FmaGflops(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())), 0.1);
}

void PrintHeader(const std::string& workload, uint64_t seed, double seconds,
                 bool trace, const cdcl::models::ModelConfig& model,
                 const Calibration& calibration) {
  using namespace cdcl;  // NOLINT: header brevity
  const int64_t threads = kernels::GetNumThreads();
  std::printf("# cdcl perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace ? 1 : 0);
  std::printf("# host: cpu=\"%s\" nproc=%u isa=%s git=%s\n", CpuModel().c_str(),
              std::thread::hardware_concurrency(), IsaTier(),
              Env("PERFBENCH_GIT_SHA"));
  static const char* kGemmKernels[] = {"auto", "scalar", "packed"};
  static const char* kPrecisions[] = {"fp32", "bf16", "int8"};
  std::printf(
      "# knobs: CDCL_NUM_THREADS=%lld CDCL_GEMM_KERNEL=%s "
      "CDCL_GEMM_NARROW_PACK=%s CDCL_GEMM_PRECISION=%s CDCL_FUSED_EVAL=%s "
      "CDCL_FUSED_TRAIN=%s CDCL_ARENA=%s CDCL_VEC_MATH=%s "
      "CDCL_ASYNC_PIPELINE=%s CDCL_SPIN_US=%s\n",
      static_cast<long long>(threads),
      kGemmKernels[static_cast<int>(kernels::GetGemmKernel())],
      OnOff(kernels::GemmNarrowPackEnabled()),
      kPrecisions[static_cast<int>(kernels::GetGemmPrecision())],
      OnOff(nn::FusedEvalEnabled()), OnOff(nn::FusedTrainEnabled()),
      OnOff(ArenaEnabled()), OnOff(kernels::VecMathEnabled()),
      OnOff(StepPipeline::AsyncPipelineEnabled()), Env("CDCL_SPIN_US"));
  const serve::ContinualServer::Options serve_opts =
      serve::ContinualServer::Options::FromEnv();
  std::printf(
      "# knobs: CDCL_SERVE_WORKERS=%lld CDCL_SERVE_DEADLINE_US=%lld "
      "CDCL_SERVE_QUEUE_MAX=%lld CDCL_SERVE_IDLE_TIMEOUT_MS=%lld "
      "max_batch=%lld (CDCL_EVAL_BATCH=%s) CDCL_SERVE_PUBLISH_EVERY=%lld "
      "CDCL_CKPT_RETAIN=%d CDCL_LOG_LEVEL=%s CDCL_FAULT=%s\n",
      static_cast<long long>(serve_opts.server.workers),
      static_cast<long long>(serve_opts.server.deadline_us),
      static_cast<long long>(serve_opts.server.queue_max),
      static_cast<long long>(serve_opts.server.idle_timeout_ms),
      static_cast<long long>(serve_opts.server.max_batch),
      Env("CDCL_EVAL_BATCH"),
      static_cast<long long>(serve_opts.publish_every), serve_opts.ckpt_retain,
      Env("CDCL_LOG_LEVEL"), Env("CDCL_FAULT"));
  std::printf(
      "# model: %lldx%lldx%lld input, d=%lld, layers=%lld, mlp_ratio=%lld, "
      "tokenizer_layers=%lld\n",
      static_cast<long long>(model.channels),
      static_cast<long long>(model.image_hw),
      static_cast<long long>(model.image_hw),
      static_cast<long long>(model.embed_dim),
      static_cast<long long>(model.num_layers),
      static_cast<long long>(model.mlp_ratio),
      static_cast<long long>(model.tokenizer_layers));
  std::printf(
      "# calibration: fma 1t=%.2f GFLOP/s, %lldt=%.2f GFLOP/s (x%.2f) after "
      "%.2fs waiting for the vCPUs\n",
      calibration.fma_1t, static_cast<long long>(threads), calibration.fma_nt,
      calibration.fma_1t > 0.0 ? calibration.fma_nt / calibration.fma_1t : 0.0,
      calibration.wait_s);
}

std::string ResultJson(const RunResult& result, bool trace) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  const std::vector<Metric>& metrics =
      trace ? result.per_layer : result.end_to_end;
  for (size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no inf/nan; a metric that could not be measured reads -1.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << v << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
