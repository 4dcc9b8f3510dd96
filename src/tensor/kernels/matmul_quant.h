#ifndef CDCL_TENSOR_KERNELS_MATMUL_QUANT_H_
#define CDCL_TENSOR_KERNELS_MATMUL_QUANT_H_

#include <cstdint>
#include <cstring>

namespace cdcl {
namespace kernels {

// ---------------------------------------------------------------------------
// Storage precision of rehearsal records.
//
// Every GEMM runs in fp32. The precision mode selects only how
// cl::CompactFloats encodes the logits and features a rehearsal record keeps
// (and therefore their checkpoint bytes): raw fp32, bf16 codes, or int8
// codes with one fp32 scale per vector. The mode is read once per Encode and
// travels with the encoded vector, so records written under different modes
// coexist and round-trip through a checkpoint code for code.
// ---------------------------------------------------------------------------

/// Rehearsal-record storage precision. kFp32 (the default) stores raw floats,
/// byte-identical to a plain std::vector<float>.
enum class GemmPrecision {
  kFp32 = 0,
  kBf16 = 1,  // round-to-nearest-even bf16 codes
  kInt8 = 2,  // symmetric per-vector absmax codes + one fp32 scale
};

/// Overrides the precision mode. Also settable via CDCL_GEMM_PRECISION
/// (fp32|bf16|int8); an explicit SetGemmPrecision wins over the env var.
void SetGemmPrecision(GemmPrecision precision);
GemmPrecision GetGemmPrecision();

/// bf16 <-> fp32 scalar conversion. Encode rounds to nearest-even (the same
/// value an AVX-512-BF16 vcvtneps2bf16 would produce); decode is exact.
inline uint16_t Bf16FromF32(float x) {
  uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  // NaN would round its payload into infinity; keep it a NaN instead.
  if ((u & 0x7FFFFFFFu) > 0x7F800000u) return static_cast<uint16_t>((u >> 16) | 0x0040u);
  u += 0x7FFFu + ((u >> 16) & 1u);
  return static_cast<uint16_t>(u >> 16);
}

inline float F32FromBf16(uint16_t h) {
  const uint32_t u = static_cast<uint32_t>(h) << 16;
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

}  // namespace kernels
}  // namespace cdcl

#endif  // CDCL_TENSOR_KERNELS_MATMUL_QUANT_H_
