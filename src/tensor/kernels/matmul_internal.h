#ifndef CDCL_TENSOR_KERNELS_MATMUL_INTERNAL_H_
#define CDCL_TENSOR_KERNELS_MATMUL_INTERNAL_H_

#include <cstdint>

// Internal seam between the portable GEMM dispatcher (matmul_kernel.cc) and
// the AVX2/FMA translation unit (matmul_avx2.cc, compiled with -mavx2 -mfma
// so the rest of the library keeps its baseline ISA). Nothing here is part
// of the public kernel API.

namespace cdcl {
namespace kernels {
namespace internal {

/// Packed-B panel widths. B(k,n) is repacked into ceil(n/panel) panels, each
/// holding `panel` consecutive columns k-major and zero-padded to full width:
///   packed[(p * k + l) * panel + t] == B[l][p * panel + t]   (0 past n)
/// so a micro-kernel streams one contiguous panel instead of strided rows.
/// The panel width matches the micro-kernel's register tile: 2 YMM lanes for
/// the AVX2 6x16 kernel, 2 ZMM lanes for the AVX-512 8x32 kernel.
inline constexpr int64_t kPanel = 16;     // AVX2 tier
inline constexpr int64_t kPanel512 = 32;  // AVX-512 tier

/// k-blocking depth for the packed path. C round-trips through memory once
/// per block (exact for fp32 stores, so the per-element accumulation order
/// is unchanged), and one block of a panel (kKc * kPanel floats) plus the
/// A row slice stays cache-resident across the panel sweep.
inline constexpr int64_t kKc = 256;

/// True when the binary carries the AVX2/FMA micro-kernels AND the CPU
/// supports them (checked once via cpuid).
bool Avx2Available();

/// Same for the AVX-512 packed-NN tier (implies Avx2Available() in practice;
/// dispatch still checks each independently).
bool Avx512Available();

/// The tiers the GEMM and vec-math dispatchers may use: what the CPU and
/// build support, capped by SetIsaCap (matmul_kernel.h).
bool UseAvx2();
bool UseAvx512();

// Row-range workers: each computes C rows [r0, r1) and is called from inside
// a ParallelChunks region. Every output element is one ascending-k fma
// chain (matmul_kernel.h), so neither the chunk boundaries nor the tile
// geometry show in the results. All return false when this TU was built
// without AVX2 support; callers must then run the scalar path instead.
bool Avx2GemmNNPacked(int64_t r0, int64_t r1, int64_t n, int64_t k,
                      const float* a, const float* packed_b, float* c,
                      bool accumulate);
/// packed_b uses kPanel512-wide panels here, kPanel-wide above.
bool Avx512GemmNNPacked(int64_t r0, int64_t r1, int64_t n, int64_t k,
                        const float* a, const float* packed_b, float* c,
                        bool accumulate);
bool Avx2GemmTN(int64_t r0, int64_t r1, int64_t m, int64_t n, int64_t k,
                const float* a, const float* b, float* c, bool accumulate);

}  // namespace internal
}  // namespace kernels
}  // namespace cdcl

#endif  // CDCL_TENSOR_KERNELS_MATMUL_INTERNAL_H_
