#include "tensor/kernels/matmul_kernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>

#include "tensor/kernels/kernel_context.h"
#include "tensor/kernels/matmul_internal.h"
#include "util/prefetch.h"

namespace cdcl {
namespace kernels {
namespace {

// Register-block geometry of the scalar NN tile. kMr rows of C are held in
// kNr-wide accumulator strips, so each load of a B strip is reused kMr times
// and C never round-trips through memory inside the k loop (the compiler
// splits the strip into vector registers). kGemmRowGrain (the parallel row
// partition) is a multiple of every row block, so only the final chunk sees
// row tails. The scalar NT and TN loops keep 4-row blocks (NT: 4x4).
constexpr int64_t kMr = 8;
constexpr int64_t kNr = 32;
constexpr int kMrTN = 4;
static_assert(kGemmRowGrain % kMr == 0, "row grain must align register block");
static_assert(kGemmRowGrain % kMrTN == 0, "row grain must align NT/TN block");
static_assert(kGemmRowGrain % 6 == 0, "row grain must align AVX2 6-row block");

// ---------------------------------------------------------------------------
// Kernel selection: a speed-only rule of (shape, ISA cap). Every tier
// computes the same fma chain (matmul_kernel.h), so the rule can never
// change a result. Thresholds are documented in docs/kernels.md.
// ---------------------------------------------------------------------------

// Packed NN/NT need every dimension past the micro tile: below it the pack
// and the padded tail tiles cost more than the scalar loop saves.
constexpr int64_t kPackedMinM = 8;
constexpr int64_t kPackedMinN = 16;
constexpr int64_t kPackedMinK = 16;
// The TN SIMD body has no packing cost; it needs one full tile of columns.
constexpr int64_t kSimdMinNTN = 16;

std::atomic<int> g_isa_cap{static_cast<int>(IsaCap::kAvx512)};

bool UsePacked(int64_t m, int64_t n, int64_t k) {
  return m >= kPackedMinM && n >= kPackedMinN && k >= kPackedMinK &&
         internal::UseAvx2();
}

/// C rows [0, m) zeroed in the usual row partition (the k == 0 case).
void ZeroOutput(int64_t m, int64_t n, float* c) {
  ParallelChunks(m, kGemmRowGrain, [=](int64_t r0, int64_t r1) {
    std::memset(c + r0 * n, 0,
                static_cast<size_t>((r1 - r0) * n) * sizeof(float));
  });
}

/// The calling thread's grow-only pack buffer. The per-sample attention
/// products pack millions of times per task, so the buffer is reused rather
/// than allocated per call. A GEMM never runs another GEMM while its pack is
/// live (row chunks only read it, and a thread joining a region runs only
/// that region's chunks), so one buffer per thread suffices.
float* PackBuffer(int64_t floats) {
  thread_local std::unique_ptr<float[]> buffer;
  thread_local int64_t capacity = 0;
  if (floats > capacity) {
    // new[] (not vector): the pack loop is the first and only writer.
    buffer.reset(new float[static_cast<size_t>(floats)]);
    capacity = floats;
  }
  return buffer.get();
}

/// Packs B into zero-padded `panel`-wide k-major panels (see
/// matmul_internal.h) and runs the widest allowed SIMD row workers over the
/// usual row partition. `b_rows_are_columns` reads B as (n,k) row-major —
/// the NT operand — so the pack doubles as the transpose. The AVX-512 tier
/// uses kPanel512-wide panels for its 8x32 ZMM tile; the AVX2 tier uses
/// kPanel-wide panels for its 6x16 YMM tile.
void GemmPacked(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c, bool accumulate,
                bool b_rows_are_columns) {
  const bool wide = internal::UseAvx512();
  const int64_t panel = wide ? internal::kPanel512 : internal::kPanel;
  const int64_t panels = (n + panel - 1) / panel;
  float* pb = PackBuffer(panels * k * panel);
  ParallelChunks(panels, 4, [=](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t j0 = p * panel;
      const int64_t ncols = std::min(panel, n - j0);
      float* dst = pb + p * k * panel;
      if (b_rows_are_columns) {
        for (int64_t t = 0; t < ncols; ++t) {
          const float* brow = b + (j0 + t) * k;
          for (int64_t l = 0; l < k; ++l) dst[l * panel + t] = brow[l];
        }
        for (int64_t l = 0; l < k; ++l) {
          for (int64_t t = ncols; t < panel; ++t) dst[l * panel + t] = 0.0f;
        }
        continue;
      }
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
      for (int64_t t = 0; t < kNr; ++t) {
        acc[r][t] = std::fma(av, br[t], acc[r][t]);
      }
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
      for (int64_t t = 0; t < kNr; ++t) acc[t] = std::fma(av, br[t], acc[t]);
    }
    for (int64_t t = 0; t < kNr; ++t) crow[j0 + t] = acc[t];
  }
  for (; j0 < n; ++j0) {
    float acc = accumulate ? crow[j0] : 0.0f;
    for (int64_t l = 0; l < k; ++l) acc = std::fma(arow[l], b[l * n + j0], acc);
    crow[j0] = acc;
  }
}

/// One MR x NR block of C(m,n) (+)= A(m,k) * B(n,k)^T: MR*NR independent
/// chains advanced together, so the dependent fma chain of each element
/// does not leave the FMA units idle for its latency.
template <int MR, int NR>
inline void TileNT(int64_t n, int64_t k, const float* a, const float* b,
                   float* c, bool accumulate) {
  float acc[MR][NR];
  for (int r = 0; r < MR; ++r) {
    for (int t = 0; t < NR; ++t) acc[r][t] = accumulate ? c[r * n + t] : 0.0f;
  }
  for (int64_t l = 0; l < k; ++l) {
    for (int r = 0; r < MR; ++r) {
      for (int t = 0; t < NR; ++t) {
        acc[r][t] = std::fma(a[r * k + l], b[t * k + l], acc[r][t]);
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int t = 0; t < NR; ++t) c[r * n + t] = acc[r][t];
  }
}

/// MR rows of the scalar NT product: 4-column blocks, then single columns.
template <int MR>
void RowsNT(int64_t n, int64_t k, const float* a, const float* b, float* c,
            bool accumulate) {
  int64_t j = 0;
  for (; j + kMrTN <= n; j += kMrTN) {
    TileNT<MR, kMrTN>(n, k, a, b + j * k, c + j, accumulate);
  }
  for (; j < n; ++j) TileNT<MR, 1>(n, k, a, b + j * k, c + j, accumulate);
}

}  // namespace

namespace internal {

bool UseAvx2() {
  return Avx2Available() &&
         g_isa_cap.load(std::memory_order_relaxed) >=
             static_cast<int>(IsaCap::kAvx2);
}

bool UseAvx512() {
  return Avx512Available() &&
         g_isa_cap.load(std::memory_order_relaxed) >=
             static_cast<int>(IsaCap::kAvx512);
}

}  // namespace internal

bool CpuHasAvx2Fma() { return internal::Avx2Available(); }

void SetIsaCap(IsaCap cap) {
  g_isa_cap.store(static_cast<int>(cap), std::memory_order_relaxed);
}

IsaCap GetIsaCap() {
  return static_cast<IsaCap>(g_isa_cap.load(std::memory_order_relaxed));
}

void GemmNN(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) ZeroOutput(m, n, c);
    return;
  }
  if (UsePacked(m, n, k)) {
    GemmPacked(m, n, k, a, b, c, accumulate, /*b_rows_are_columns=*/false);
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
          for (int64_t r = 0; r < kMr; ++r) s[r] = std::fma(arows[r][l], bv, s[r]);
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
  if (UsePacked(m, n, k)) {
    GemmPacked(m, n, k, a, b, c, accumulate, /*b_rows_are_columns=*/true);
    return;
  }
  ParallelChunks(m, kGemmRowGrain, [=](int64_t r0, int64_t r1) {
    int64_t i = r0;
    for (; i + kMrTN <= r1; i += kMrTN) {
      RowsNT<kMrTN>(n, k, a + i * k, b, c + i * n, accumulate);
    }
    for (; i < r1; ++i) RowsNT<1>(n, k, a + i * k, b, c + i * n, accumulate);
  });
}

void GemmTN(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) ZeroOutput(m, n, c);
    return;
  }
  if (n >= kSimdMinNTN && internal::UseAvx2()) {
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
    for (; i + kMrTN <= r1; i += kMrTN) {
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
          c0[j] = std::fma(av0, bv, c0[j]);
          c1[j] = std::fma(av1, bv, c1[j]);
          c2[j] = std::fma(av2, bv, c2[j]);
          c3[j] = std::fma(av3, bv, c3[j]);
        }
      }
    }
    for (; i < r1; ++i) {
      float* crow = c + i * n;
      for (int64_t l = 0; l < k; ++l) {
        const float av = a[l * m + i];
        const float* brow = b + l * n;
        for (int64_t j = 0; j < n; ++j) crow[j] = std::fma(av, brow[j], crow[j]);
      }
    }
  });
}

}  // namespace kernels
}  // namespace cdcl
