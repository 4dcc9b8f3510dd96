// AVX2/FMA micro-kernels for the SIMD GEMM paths (packed NN, which NT also
// runs, and TN). This file is the only TU compiled with -mavx2 -mfma (see
// CMakeLists.txt); it must be entered only after a runtime Avx2Available()
// check so the binary stays runnable on baseline x86-64. Packing, dispatch
// and the scalar fallbacks live in matmul_kernel.cc.

#include "tensor/kernels/matmul_internal.h"
#include "util/prefetch.h"

#if defined(__AVX2__) && defined(__FMA__)
#define CDCL_HAVE_AVX2_TU 1
#include <immintrin.h>
#else
#define CDCL_HAVE_AVX2_TU 0
#endif

#include <algorithm>
#include <cmath>

namespace cdcl {
namespace kernels {
namespace internal {

bool Avx2Available() {
#if CDCL_HAVE_AVX2_TU && defined(__GNUC__)
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

#if CDCL_HAVE_AVX2_TU

namespace {

// ---------------------------------------------------------------------------
// NN: MR x kPanel register tile over a packed B panel.
// ---------------------------------------------------------------------------

/// `a` points at A[i][l0] (row stride lda), `pb` at the panel's l0 slice,
/// `c` at an ldc-strided tile that is always kPanel lanes wide (tail panels
/// are staged through a padded stack tile by the caller). load_c selects
/// accumulator init from C vs zero. MR <= 6 keeps 12 accumulator registers
/// plus two B lanes and one broadcast inside the 16 YMM registers.
template <int MR>
inline void MicroNN(int64_t kc, const float* a, int64_t lda, const float* pb,
                    float* c, int64_t ldc, bool load_c) {
  __m256 lo[MR], hi[MR];
  for (int r = 0; r < MR; ++r) {
    lo[r] = load_c ? _mm256_loadu_ps(c + r * ldc) : _mm256_setzero_ps();
    hi[r] = load_c ? _mm256_loadu_ps(c + r * ldc + 8) : _mm256_setzero_ps();
  }
  for (int64_t l = 0; l < kc; ++l) {
    // One kPanel slice is exactly one cache line; hint the slice 8 ahead so
    // its load overlaps this iteration's FMAs (safe past the panel end).
    PrefetchRead(pb + (l + 8) * kPanel);
    const __m256 b0 = _mm256_loadu_ps(pb + l * kPanel);
    const __m256 b1 = _mm256_loadu_ps(pb + l * kPanel + 8);
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_set1_ps(a[r * lda + l]);
      lo[r] = _mm256_fmadd_ps(av, b0, lo[r]);
      hi[r] = _mm256_fmadd_ps(av, b1, hi[r]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    _mm256_storeu_ps(c + r * ldc, lo[r]);
    _mm256_storeu_ps(c + r * ldc + 8, hi[r]);
  }
}

/// One MR-row block of C over every panel, k-blocked so the A row slice is
/// reused across the whole panel sweep while it is hot.
template <int MR>
void RowBlockNN(int64_t n, int64_t k, const float* a, int64_t lda,
                const float* packed_b, float* c, int64_t ldc,
                bool accumulate) {
  const int64_t panels = (n + kPanel - 1) / kPanel;
  for (int64_t l0 = 0; l0 < k; l0 += kKc) {
    const int64_t kc = std::min(kKc, k - l0);
    const bool load_c = accumulate || l0 > 0;
    for (int64_t p = 0; p < panels; ++p) {
      const float* pb = packed_b + (p * k + l0) * kPanel;
      const int64_t j0 = p * kPanel;
      const int64_t ncols = std::min(kPanel, n - j0);
      if (ncols == kPanel) {
        MicroNN<MR>(kc, a + l0, lda, pb, c + j0, ldc, load_c);
      } else {
        // Tail panel: stage the C tile in a zero-padded stack tile so the
        // micro-kernel runs full width (packed B pads the dead lanes with
        // zeros, which leave the padded accumulators at exactly zero).
        float tmp[6 * kPanel];
        for (int r = 0; r < MR; ++r) {
          for (int64_t t = 0; t < kPanel; ++t) {
            tmp[r * kPanel + t] =
                (load_c && t < ncols) ? c[r * ldc + j0 + t] : 0.0f;
          }
        }
        MicroNN<MR>(kc, a + l0, lda, pb, tmp, kPanel, /*load_c=*/true);
        for (int r = 0; r < MR; ++r) {
          for (int64_t t = 0; t < ncols; ++t) {
            c[r * ldc + j0 + t] = tmp[r * kPanel + t];
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// TN: MR x kPanel tile held in registers across the whole k sweep; A columns
// are broadcast-loaded (stride m), B rows stream contiguously.
// ---------------------------------------------------------------------------

/// `acol` points at A[0][i] (element l at acol[l * stride_a + r]), `b` at
/// B[0][j0]. MR <= 4: 8 accumulators + 2 B lanes + 1 broadcast.
template <int MR>
inline void MicroTN(int64_t k, const float* acol, int64_t stride_a,
                    const float* b, int64_t ldb, float* c, int64_t ldc,
                    bool accumulate) {
  __m256 lo[MR], hi[MR];
  for (int r = 0; r < MR; ++r) {
    lo[r] = accumulate ? _mm256_loadu_ps(c + r * ldc) : _mm256_setzero_ps();
    hi[r] = accumulate ? _mm256_loadu_ps(c + r * ldc + 8) : _mm256_setzero_ps();
  }
  for (int64_t l = 0; l < k; ++l) {
    const __m256 b0 = _mm256_loadu_ps(b + l * ldb);
    const __m256 b1 = _mm256_loadu_ps(b + l * ldb + 8);
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_set1_ps(acol[l * stride_a + r]);
      lo[r] = _mm256_fmadd_ps(av, b0, lo[r]);
      hi[r] = _mm256_fmadd_ps(av, b1, hi[r]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    _mm256_storeu_ps(c + r * ldc, lo[r]);
    _mm256_storeu_ps(c + r * ldc + 8, hi[r]);
  }
}

/// Column tail (< kPanel): the same per-element fma chain via a small stack
/// tile (explicit std::fma, so contraction cannot change it).
template <int MR>
void TailTN(int64_t k, const float* acol, int64_t stride_a, const float* b,
            int64_t ldb, float* c, int64_t ldc, int64_t ncols,
            bool accumulate) {
  float s[MR][kPanel];
  for (int r = 0; r < MR; ++r) {
    for (int64_t t = 0; t < ncols; ++t) {
      s[r][t] = accumulate ? c[r * ldc + t] : 0.0f;
    }
  }
  for (int64_t l = 0; l < k; ++l) {
    const float* brow = b + l * ldb;
    for (int r = 0; r < MR; ++r) {
      const float av = acol[l * stride_a + r];
      for (int64_t t = 0; t < ncols; ++t) {
        s[r][t] = std::fma(av, brow[t], s[r][t]);
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int64_t t = 0; t < ncols; ++t) c[r * ldc + t] = s[r][t];
  }
}

template <int MR>
void RowBlockTN(int64_t m, int64_t n, int64_t k, const float* acol,
                const float* b, float* c, int64_t ldc, bool accumulate) {
  int64_t j = 0;
  for (; j + kPanel <= n; j += kPanel) {
    MicroTN<MR>(k, acol, m, b + j, n, c + j, ldc, accumulate);
  }
  if (j < n) TailTN<MR>(k, acol, m, b + j, n, c + j, ldc, n - j, accumulate);
}

}  // namespace

bool Avx2GemmNNPacked(int64_t r0, int64_t r1, int64_t n, int64_t k,
                      const float* a, const float* packed_b, float* c,
                      bool accumulate) {
  constexpr int64_t kMr = 6;
  int64_t i = r0;
  for (; i + kMr <= r1; i += kMr) {
    RowBlockNN<6>(n, k, a + i * k, k, packed_b, c + i * n, n, accumulate);
  }
  const float* ar = a + i * k;
  float* cr = c + i * n;
  switch (r1 - i) {
    case 5: RowBlockNN<5>(n, k, ar, k, packed_b, cr, n, accumulate); break;
    case 4: RowBlockNN<4>(n, k, ar, k, packed_b, cr, n, accumulate); break;
    case 3: RowBlockNN<3>(n, k, ar, k, packed_b, cr, n, accumulate); break;
    case 2: RowBlockNN<2>(n, k, ar, k, packed_b, cr, n, accumulate); break;
    case 1: RowBlockNN<1>(n, k, ar, k, packed_b, cr, n, accumulate); break;
    default: break;
  }
  return true;
}

bool Avx2GemmTN(int64_t r0, int64_t r1, int64_t m, int64_t n, int64_t k,
                const float* a, const float* b, float* c, bool accumulate) {
  constexpr int64_t kMr = 4;
  int64_t i = r0;
  for (; i + kMr <= r1; i += kMr) {
    RowBlockTN<4>(m, n, k, a + i, b, c + i * n, n, accumulate);
  }
  switch (r1 - i) {
    case 3: RowBlockTN<3>(m, n, k, a + i, b, c + i * n, n, accumulate); break;
    case 2: RowBlockTN<2>(m, n, k, a + i, b, c + i * n, n, accumulate); break;
    case 1: RowBlockTN<1>(m, n, k, a + i, b, c + i * n, n, accumulate); break;
    default: break;
  }
  return true;
}

#else  // !CDCL_HAVE_AVX2_TU

bool Avx2GemmNNPacked(int64_t, int64_t, int64_t, int64_t, const float*,
                      const float*, float*, bool) {
  return false;
}
bool Avx2GemmTN(int64_t, int64_t, int64_t, int64_t, int64_t, const float*,
                const float*, float*, bool) {
  return false;
}

#endif  // CDCL_HAVE_AVX2_TU

}  // namespace internal
}  // namespace kernels
}  // namespace cdcl
