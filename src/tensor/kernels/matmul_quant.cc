// Storage-precision knob for rehearsal records. See matmul_quant.h.

#include "tensor/kernels/matmul_quant.h"

#include <atomic>
#include <string>

#include "util/env.h"

namespace cdcl {
namespace kernels {
namespace {

std::atomic<int> g_precision_override{-1};  // -1 = unset (env var / fp32)

GemmPrecision PrecisionFromEnv() {
  const std::string v = EnvString("CDCL_GEMM_PRECISION", "fp32");
  if (v == "bf16") return GemmPrecision::kBf16;
  if (v == "int8") return GemmPrecision::kInt8;
  return GemmPrecision::kFp32;
}

}  // namespace

void SetGemmPrecision(GemmPrecision precision) {
  g_precision_override.store(static_cast<int>(precision),
                             std::memory_order_relaxed);
}

GemmPrecision GetGemmPrecision() {
  const int o = g_precision_override.load(std::memory_order_relaxed);
  if (o >= 0) return static_cast<GemmPrecision>(o);
  static const GemmPrecision from_env = PrecisionFromEnv();
  return from_env;
}

}  // namespace kernels
}  // namespace cdcl
