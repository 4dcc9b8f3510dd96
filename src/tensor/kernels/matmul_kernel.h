#ifndef CDCL_TENSOR_KERNELS_MATMUL_KERNEL_H_
#define CDCL_TENSOR_KERNELS_MATMUL_KERNEL_H_

#include <cstdint>

namespace cdcl {
namespace kernels {

// ---------------------------------------------------------------------------
// Single-precision GEMM kernels over dense row-major buffers.
//
// Numerics contract (one chain): every output element is one ascending-k
// fused multiply-add chain,
//   c = accumulate ? C[i][j] : 0.0f;  for l = 0..k-1: c = fma(a_il, b_lj, c)
// in every tier — the portable scalar loops (explicit std::fma, so compiler
// contraction cannot change them), the packed-B AVX2/AVX-512 NN/NT bodies
// and the AVX2 TN body. Kernel choice is therefore a speed decision only:
// results are bitwise identical across tiers, ISA caps, thread counts,
// and the row count m (so across batch composition too).
//
// The dispatcher picks per shape (see docs/kernels.md): NN and NT run
// the packed path when m >= 8, n >= 16 and k >= 16 and the ISA allows it;
// TN runs its SIMD body when n >= 16. Everything else runs scalar.
// ---------------------------------------------------------------------------

/// True when the CPU (and build) support the AVX2/FMA micro-kernels,
/// regardless of SetIsaCap.
bool CpuHasAvx2Fma();

/// Widest ISA tier the GEMM and vec-math dispatchers may use. Every tier
/// computes the same bits, so the cap only changes speed; tests use it to
/// run one host as each host shape. Process-wide test seam (no env knob):
/// set it only while no kernel is in flight. Default: kAvx512 (no cap).
enum class IsaCap { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };
void SetIsaCap(IsaCap cap);
IsaCap GetIsaCap();

/// C(m,n) (+)= A(m,k) * B(k,n).
void GemmNN(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate);

/// C(m,n) (+)= A(m,k) * B(n,k)^T — i.e. C[i][j] = dot(A row i, B row j).
/// This is the dA = G * B^T backward shape and the Q K^T attention score.
void GemmNT(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate);

/// C(m,n) (+)= A(k,m)^T * B(k,n) — i.e. C[i][j] = sum_l A[l][i] * B[l][j].
/// This is the dB = A^T * G backward shape.
void GemmTN(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate);

// -- frozen perfbench only; delete with ROADMAP item 2's benchmark PR -------
// perfbench/src prints these removed knobs in its header and wraps its
// quiesced re-eval in the removed scope. They are constants now: the GEMM
// dispatcher has no modes, and vec math has no libm mode.
enum class GemmKernel { kAuto = 0 };
inline GemmKernel GetGemmKernel() { return GemmKernel::kAuto; }
inline bool GemmNarrowPackEnabled() { return true; }
inline bool VecMathEnabled() { return true; }
class BatchInvariantGemmScope {
 public:
  BatchInvariantGemmScope() {}  // user-provided: no unused-variable warning
};
// -- end frozen perfbench block ----------------------------------------------

}  // namespace kernels
}  // namespace cdcl

#endif  // CDCL_TENSOR_KERNELS_MATMUL_KERNEL_H_
