#ifndef CDCL_TENSOR_KERNELS_MATMUL_KERNEL_H_
#define CDCL_TENSOR_KERNELS_MATMUL_KERNEL_H_

#include <cstdint>

namespace cdcl {
namespace kernels {

// ---------------------------------------------------------------------------
// Single-precision GEMM kernels over dense row-major buffers.
//
// Two implementations live behind each entry point:
//   - the portable scalar register-tile path (8x32 NN tile, 4-row NT/TN), and
//   - a packed-B, k-blocked SIMD path with AVX2/FMA micro-kernels picked at
//     runtime when the CPU supports them.
// The dispatcher chooses per shape (see kernels/README.md for the decision
// table); the choice never depends on the thread count, each output element
// is produced by exactly one thread, and the k-accumulation order for every
// element is fixed, so any given kernel's results are bitwise identical for
// every thread count. Different kernels (scalar vs SIMD) agree only to float
// rounding, which is why the selection must be shape-deterministic.
// `accumulate` selects C += AB (true) vs C = AB (false).
// ---------------------------------------------------------------------------

/// Which GEMM implementation the dispatcher uses. kAuto picks per shape and
/// ISA; the forced modes exist for tests and benchmarks that pin one path.
enum class GemmKernel {
  kAuto = 0,
  kScalar = 1,  // portable register-tile path
  kPacked = 2,  // packed-B SIMD path (falls back to scalar without AVX2/FMA)
};

/// Overrides the dispatcher. Also settable via CDCL_GEMM_KERNEL
/// (auto|scalar|packed); an explicit SetGemmKernel wins over the env var.
void SetGemmKernel(GemmKernel kernel);
GemmKernel GetGemmKernel();

/// Narrow-output auto-dispatch rule: outputs narrower than the scalar tile's
/// 32-wide micro strip never reach its vectorizable inner loop (every column
/// runs the per-column tail), so for n in [16, 32) the packed path wins even
/// far below the usual work floor (measured 5-8x on the d=24 attention
/// projections and per-sample score products). On by default; settable via
/// CDCL_GEMM_NARROW_PACK (SetGemmNarrowPack wins over the env var). Off
/// restores the PR-2 work-floor-only rule, which benches use as the seed
/// dispatch baseline. Only affects GemmKernel::kAuto.
void SetGemmNarrowPack(bool enabled);
bool GemmNarrowPackEnabled();

/// True when the CPU (and build) support the AVX2/FMA micro-kernels.
bool CpuHasAvx2Fma();

/// Batch-invariant auto dispatch (thread-local). The auto policy is a pure
/// function of (shape, ISA, override), and the row count m of the flattened
/// (batch*tokens, d) eval GEMMs scales with the batch — so the SAME sample
/// can cross a kernel threshold (and shift in the last float bit) purely
/// because of who it was batched with. While this flag is set on the calling
/// thread, kAuto evaluates its m-dependent conditions at a fixed nominal row
/// count instead of the real m, making kernel choice — and therefore every
/// per-row result — independent of batch composition. Per-row arithmetic
/// inside each kernel is already row-partition invariant (the thread-count
/// contract above), so pinning the choice is sufficient. The inference
/// server's engine runs all its evals under this scope; forced kScalar /
/// kPacked overrides are batch-invariant by construction and are unaffected.
/// A ParallelChunks region runs every chunk under its launcher's setting,
/// whichever pool thread picks the chunk up.
void SetBatchInvariantGemm(bool enabled);
bool BatchInvariantGemmEnabled();

/// RAII guard for SetBatchInvariantGemm on the current thread.
class BatchInvariantGemmScope {
 public:
  BatchInvariantGemmScope() : previous_(BatchInvariantGemmEnabled()) {
    SetBatchInvariantGemm(true);
  }
  ~BatchInvariantGemmScope() { SetBatchInvariantGemm(previous_); }

  BatchInvariantGemmScope(const BatchInvariantGemmScope&) = delete;
  BatchInvariantGemmScope& operator=(const BatchInvariantGemmScope&) = delete;

 private:
  bool previous_;
};

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

}  // namespace kernels
}  // namespace cdcl

#endif  // CDCL_TENSOR_KERNELS_MATMUL_KERNEL_H_
