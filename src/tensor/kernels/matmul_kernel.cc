#include "tensor/kernels/matmul_kernel.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>

#include "tensor/kernels/kernel_context.h"
#include "tensor/kernels/matmul_internal.h"
#include "util/env.h"
#include "util/prefetch.h"

namespace cdcl {
namespace kernels {
namespace {

// Register-block geometry. kMr rows of C are held in kNr-wide accumulator
// strips, so each load of a B strip is reused kMr times and C never round-
// trips through memory inside the k loop. The 8x32 tile measures fastest on
// AVX2/AVX-512 targets (the compiler splits the strip into vector registers).
// kGemmRowGrain (the parallel row partition) is a multiple of kMr, so only
// the final chunk sees row tails. The NT/TN variants keep the narrower 4-row
// geometry that suits their access patterns.
constexpr int64_t kMr = 8;
constexpr int64_t kNr = 32;
constexpr int64_t kMrNT = 4;
static_assert(kGemmRowGrain % kMr == 0, "row grain must align register block");
static_assert(kGemmRowGrain % kMrNT == 0, "row grain must align NT/TN block");
static_assert(kGemmRowGrain % 6 == 0, "row grain must align AVX2 6-row block");

// ---------------------------------------------------------------------------
// Kernel selection. The choice is a pure function of (shape, ISA, override)
// — never of the thread count — so dispatch cannot break the bitwise
// thread-count-invariance contract. Thresholds are documented in README.md.
// ---------------------------------------------------------------------------

// Packed NN pays an O(k*n) pack of B, so it needs enough arithmetic to
// amortize: every dimension past the register tile and ~64^3 total work.
// Exception: outputs narrower than the scalar tile's kNr-wide micro strip
// (n < 32) never reach that tile's vectorizable inner loop — every column
// takes the per-column tail — so there the packed path wins even at tiny
// work (measured 5-8x at the paper model's d=24 projection/score shapes; see
// docs/kernels.md). The narrow rule is gated by GemmNarrowPackEnabled().
constexpr int64_t kPackedMinM = 8;
constexpr int64_t kPackedMinN = 16;
constexpr int64_t kPackedMinK = 16;
constexpr int64_t kPackedMinWork = int64_t{1} << 18;  // 64^3 madds
// NT/TN SIMD paths have no packing cost; they only need vectorizable width.
constexpr int64_t kSimdMinKNT = 16;   // dot length worth 8-lane FMA
constexpr int64_t kSimdMinNTN = 16;   // one full output tile of columns

std::atomic<int> g_kernel_override{-1};  // -1 = unset (env var / auto)
std::atomic<int> g_narrow_pack{-1};      // -1 = unresolved (consult env once)

// Batch-invariant dispatch (see header): thread-local because concurrent
// inference workers must not leak the mode into training threads. A parallel
// region carries its launcher's value into every chunk (kernel_context.cc),
// so a GemmNN called inside a chunk sees the same policy on any thread.
thread_local bool t_batch_invariant_gemm = false;

// Nominal row count for batch-invariant auto dispatch: a saturated serving
// micro-batch (32 requests x ~16 tokens). Any fixed value keeps the choice
// batch-independent; this one keeps the serving shapes (d in [16, 128]) on
// the same kernels a loaded micro-batch would pick, so the invariant mode
// costs nothing at exactly the batch sizes the server coalesces into.
constexpr int64_t kInvariantPolicyRows = 512;

GemmKernel KernelFromEnv() {
  const std::string v = EnvString("CDCL_GEMM_KERNEL", "auto");
  if (v == "scalar") return GemmKernel::kScalar;
  if (v == "packed") return GemmKernel::kPacked;
  return GemmKernel::kAuto;
}

/// Resolves the configured kernel choice against the ISA and the shape's
/// auto-policy verdict: forced scalar always wins, forced packed wins when
/// the ISA allows, auto follows `auto_simd`.
bool UseSimd(bool auto_simd) {
  if (!internal::Avx2Available()) return false;
  switch (GetGemmKernel()) {
    case GemmKernel::kScalar:
      return false;
    case GemmKernel::kPacked:
      return true;
    case GemmKernel::kAuto:
    default:
      return auto_simd;
  }
}

/// C rows [0, m) zeroed in the usual row partition (the k == 0 case).
void ZeroOutput(int64_t m, int64_t n, float* c) {
  ParallelChunks(m, kGemmRowGrain, [=](int64_t r0, int64_t r1) {
    std::memset(c + r0 * n, 0,
                static_cast<size_t>((r1 - r0) * n) * sizeof(float));
  });
}

/// Packs B(k,n) into zero-padded `panel`-wide panels (see matmul_internal.h)
/// and runs the widest available SIMD row workers over the usual row
/// partition. The AVX-512 tier uses kPanel512-wide panels for its 8x32 ZMM
/// tile; the AVX2 tier uses kPanel-wide panels for its 6x16 YMM tile.
void GemmNNPacked(int64_t m, int64_t n, int64_t k, const float* a,
                  const float* b, float* c, bool accumulate) {
  const bool wide = internal::Avx512Available();
  const int64_t panel = wide ? internal::kPanel512 : internal::kPanel;
  const int64_t panels = (n + panel - 1) / panel;
  // new[] (not vector) so the pack loop is the first and only writer.
  std::unique_ptr<float[]> packed(
      new float[static_cast<size_t>(panels * k * panel)]);
  float* pb = packed.get();
  ParallelChunks(panels, 4, [=](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t j0 = p * panel;
      const int64_t ncols = std::min(panel, n - j0);
      float* dst = pb + p * k * panel;
      for (int64_t l = 0; l < k; ++l) {
        // The pack reads B in n-strided rows the hardware prefetcher won't
        // chase; hint two rows ahead (prefetch never faults, so running
        // past row k-1 is fine).
        PrefetchRead(b + (l + 2) * n + j0);
        std::memcpy(dst + l * panel, b + l * n + j0,
                    static_cast<size_t>(ncols) * sizeof(float));
        for (int64_t t = ncols; t < panel; ++t) dst[l * panel + t] = 0.0f;
      }
    }
  });
  ParallelChunks(m, kGemmRowGrain, [=](int64_t r0, int64_t r1) {
    if (wide) {
      internal::Avx512GemmNNPacked(r0, r1, n, k, a, pb, c, accumulate);
    } else {
      internal::Avx2GemmNNPacked(r0, r1, n, k, a, pb, c, accumulate);
    }
  });
}

/// One kMr x kNr block of C(m,n) (+)= A(m,k) * B(k,n) at columns [j0, j0+kNr).
inline void MicroNN(int64_t n, int64_t k, const float* const* arows,
                    const float* b, int64_t j0, float* const* crows,
                    bool accumulate) {
  float acc[kMr][kNr];
  for (int64_t r = 0; r < kMr; ++r) {
    for (int64_t t = 0; t < kNr; ++t) {
      acc[r][t] = accumulate ? crows[r][j0 + t] : 0.0f;
    }
  }
  for (int64_t l = 0; l < k; ++l) {
    const float* br = b + l * n + j0;
    PrefetchRead(br + 4 * n);  // B rows are n-strided; stay 4 iterations ahead
    for (int64_t r = 0; r < kMr; ++r) {
      const float av = arows[r][l];
      for (int64_t t = 0; t < kNr; ++t) acc[r][t] += av * br[t];
    }
  }
  for (int64_t r = 0; r < kMr; ++r) {
    for (int64_t t = 0; t < kNr; ++t) crows[r][j0 + t] = acc[r][t];
  }
}

/// One row of C(m,n) (+)= A(m,k) * B(k,n) for columns [j0, n).
inline void RowNN(int64_t n, int64_t k, const float* arow, const float* b,
                  int64_t j0, float* crow, bool accumulate) {
  for (; j0 + kNr <= n; j0 += kNr) {
    float acc[kNr];
    for (int64_t t = 0; t < kNr; ++t) {
      acc[t] = accumulate ? crow[j0 + t] : 0.0f;
    }
    for (int64_t l = 0; l < k; ++l) {
      const float av = arow[l];
      const float* br = b + l * n + j0;
      for (int64_t t = 0; t < kNr; ++t) acc[t] += av * br[t];
    }
    for (int64_t t = 0; t < kNr; ++t) crow[j0 + t] = acc[t];
  }
  for (; j0 < n; ++j0) {
    float acc = accumulate ? crow[j0] : 0.0f;
    for (int64_t l = 0; l < k; ++l) acc += arow[l] * b[l * n + j0];
    crow[j0] = acc;
  }
}

}  // namespace

void SetGemmKernel(GemmKernel kernel) {
  g_kernel_override.store(static_cast<int>(kernel), std::memory_order_relaxed);
}

GemmKernel GetGemmKernel() {
  const int o = g_kernel_override.load(std::memory_order_relaxed);
  if (o >= 0) return static_cast<GemmKernel>(o);
  static const GemmKernel from_env = KernelFromEnv();
  return from_env;
}

bool CpuHasAvx2Fma() { return internal::Avx2Available(); }

void SetBatchInvariantGemm(bool enabled) { t_batch_invariant_gemm = enabled; }

bool BatchInvariantGemmEnabled() { return t_batch_invariant_gemm; }

void SetGemmNarrowPack(bool enabled) {
  g_narrow_pack.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

bool GemmNarrowPackEnabled() {
  int state = g_narrow_pack.load(std::memory_order_relaxed);
  if (state < 0) {
    state = EnvBool("CDCL_GEMM_NARROW_PACK", true) ? 1 : 0;
    g_narrow_pack.store(state, std::memory_order_relaxed);
  }
  return state == 1;
}

void GemmNN(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) ZeroOutput(m, n, c);
    return;
  }
  // Batch-invariant mode pins the m-dependent policy terms to a nominal row
  // count so a row's kernel (and bits) cannot depend on batch composition.
  const int64_t pm = t_batch_invariant_gemm ? kInvariantPolicyRows : m;
  if (UseSimd(pm >= kPackedMinM && n >= kPackedMinN && k >= kPackedMinK &&
              (pm * n * k >= kPackedMinWork ||
               (n < kNr && GemmNarrowPackEnabled())))) {
    GemmNNPacked(m, n, k, a, b, c, accumulate);
    return;
  }
  ParallelChunks(m, kGemmRowGrain, [=](int64_t r0, int64_t r1) {
    int64_t i = r0;
    for (; i + kMr <= r1; i += kMr) {
      const float* arows[kMr];
      float* crows[kMr];
      for (int64_t r = 0; r < kMr; ++r) {
        arows[r] = a + (i + r) * k;
        crows[r] = c + (i + r) * n;
      }
      int64_t j0 = 0;
      for (; j0 + kNr <= n; j0 += kNr) {
        MicroNN(n, k, arows, b, j0, crows, accumulate);
      }
      for (; j0 < n; ++j0) {
        float s[kMr];
        for (int64_t r = 0; r < kMr; ++r) {
          s[r] = accumulate ? crows[r][j0] : 0.0f;
        }
        for (int64_t l = 0; l < k; ++l) {
          const float bv = b[l * n + j0];
          for (int64_t r = 0; r < kMr; ++r) s[r] += arows[r][l] * bv;
        }
        for (int64_t r = 0; r < kMr; ++r) crows[r][j0] = s[r];
      }
    }
    for (; i < r1; ++i) {
      RowNN(n, k, a + i * k, b, 0, c + i * n, accumulate);
    }
  });
}

void GemmNT(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) ZeroOutput(m, n, c);
    return;
  }
  if (UseSimd(k >= kSimdMinKNT)) {
    ParallelChunks(m, kGemmRowGrain, [=](int64_t r0, int64_t r1) {
      internal::Avx2GemmNT(r0, r1, n, k, a, b, c, accumulate);
    });
    return;
  }
  ParallelChunks(m, kGemmRowGrain, [=](int64_t r0, int64_t r1) {
    int64_t i = r0;
    for (; i + kMrNT <= r1; i += kMrNT) {
      const float* a0 = a + (i + 0) * k;
      const float* a1 = a + (i + 1) * k;
      const float* a2 = a + (i + 2) * k;
      const float* a3 = a + (i + 3) * k;
      for (int64_t j = 0; j + kMrNT <= n; j += kMrNT) {
        // 4x4 block of row-row dot products; 16 independent accumulators
        // keep the FMA pipeline busy despite the serial k order.
        float acc[kMrNT][kMrNT] = {{0.0f}};
        const float* b0 = b + (j + 0) * k;
        const float* b1 = b + (j + 1) * k;
        const float* b2 = b + (j + 2) * k;
        const float* b3 = b + (j + 3) * k;
        for (int64_t l = 0; l < k; ++l) {
          const float bv0 = b0[l], bv1 = b1[l], bv2 = b2[l], bv3 = b3[l];
          const float av0 = a0[l], av1 = a1[l], av2 = a2[l], av3 = a3[l];
          acc[0][0] += av0 * bv0; acc[0][1] += av0 * bv1;
          acc[0][2] += av0 * bv2; acc[0][3] += av0 * bv3;
          acc[1][0] += av1 * bv0; acc[1][1] += av1 * bv1;
          acc[1][2] += av1 * bv2; acc[1][3] += av1 * bv3;
          acc[2][0] += av2 * bv0; acc[2][1] += av2 * bv1;
          acc[2][2] += av2 * bv2; acc[2][3] += av2 * bv3;
          acc[3][0] += av3 * bv0; acc[3][1] += av3 * bv1;
          acc[3][2] += av3 * bv2; acc[3][3] += av3 * bv3;
        }
        for (int64_t r = 0; r < kMrNT; ++r) {
          float* crow = c + (i + r) * n + j;
          for (int64_t t = 0; t < kMrNT; ++t) {
            crow[t] = accumulate ? crow[t] + acc[r][t] : acc[r][t];
          }
        }
      }
      for (int64_t j = n - n % kMrNT; j < n; ++j) {
        const float* brow = b + j * k;
        float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
        for (int64_t l = 0; l < k; ++l) {
          const float bv = brow[l];
          s0 += a0[l] * bv;
          s1 += a1[l] * bv;
          s2 += a2[l] * bv;
          s3 += a3[l] * bv;
        }
        float* cc = c + i * n + j;
        cc[0 * n] = accumulate ? cc[0 * n] + s0 : s0;
        cc[1 * n] = accumulate ? cc[1 * n] + s1 : s1;
        cc[2 * n] = accumulate ? cc[2 * n] + s2 : s2;
        cc[3 * n] = accumulate ? cc[3 * n] + s3 : s3;
      }
    }
    for (; i < r1; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = 0.0f;
        for (int64_t l = 0; l < k; ++l) acc += arow[l] * brow[l];
        crow[j] = accumulate ? crow[j] + acc : acc;
      }
    }
  });
}

void GemmTN(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) ZeroOutput(m, n, c);
    return;
  }
  if (UseSimd(n >= kSimdMinNTN)) {
    ParallelChunks(m, kGemmRowGrain, [=](int64_t r0, int64_t r1) {
      internal::Avx2GemmTN(r0, r1, m, n, k, a, b, c, accumulate);
    });
    return;
  }
  ParallelChunks(m, kGemmRowGrain, [=](int64_t r0, int64_t r1) {
    if (!accumulate) {
      std::memset(c + r0 * n, 0,
                  static_cast<size_t>((r1 - r0) * n) * sizeof(float));
    }
    int64_t i = r0;
    for (; i + kMrNT <= r1; i += kMrNT) {
      float* c0 = c + (i + 0) * n;
      float* c1 = c + (i + 1) * n;
      float* c2 = c + (i + 2) * n;
      float* c3 = c + (i + 3) * n;
      for (int64_t l = 0; l < k; ++l) {
        const float* brow = b + l * n;
        const float* acol = a + l * m + i;
        const float av0 = acol[0], av1 = acol[1], av2 = acol[2], av3 = acol[3];
        for (int64_t j = 0; j < n; ++j) {
          const float bv = brow[j];
          c0[j] += av0 * bv;
          c1[j] += av1 * bv;
          c2[j] += av2 * bv;
          c3[j] += av3 * bv;
        }
      }
    }
    for (; i < r1; ++i) {
      float* crow = c + i * n;
      for (int64_t l = 0; l < k; ++l) {
        const float av = a[l * m + i];
        const float* brow = b + l * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
}

}  // namespace kernels
}  // namespace cdcl
