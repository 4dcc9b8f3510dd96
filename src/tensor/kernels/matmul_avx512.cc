// AVX-512F micro-kernel for the packed-B GEMM tier (NN, and NT through the
// transposing pack). Compiled with -mavx512f (see CMakeLists.txt) and
// entered only after a runtime Avx512Available() check. The TN SIMD path
// stays on the AVX2 tier — its axpy shape gains little from wider lanes,
// while the packed tile doubles its per-iteration FMA width here (8 rows x
// 32 columns in ZMM registers: 16 accumulators + 2 B lanes + 1 broadcast of
// 32 available).

#include "tensor/kernels/matmul_internal.h"
#include "util/prefetch.h"

#if defined(__AVX512F__)
#define CDCL_HAVE_AVX512_TU 1
#include <immintrin.h>
#else
#define CDCL_HAVE_AVX512_TU 0
#endif

#include <algorithm>

namespace cdcl {
namespace kernels {
namespace internal {

bool Avx512Available() {
#if CDCL_HAVE_AVX512_TU && defined(__GNUC__)
  static const bool ok = __builtin_cpu_supports("avx512f");
  return ok;
#else
  return false;
#endif
}

#if CDCL_HAVE_AVX512_TU

namespace {

/// MR x kPanel512 register tile over one packed panel k-slice; same calling
/// convention as the AVX2 MicroNN (c always full panel width — tail panels
/// are staged through a padded stack tile).
template <int MR>
inline void MicroNN512(int64_t kc, const float* a, int64_t lda,
                       const float* pb, float* c, int64_t ldc, bool load_c) {
  __m512 lo[MR], hi[MR];
  for (int r = 0; r < MR; ++r) {
    lo[r] = load_c ? _mm512_loadu_ps(c + r * ldc) : _mm512_setzero_ps();
    hi[r] = load_c ? _mm512_loadu_ps(c + r * ldc + 16) : _mm512_setzero_ps();
  }
  for (int64_t l = 0; l < kc; ++l) {
    // A kPanel512 slice spans two cache lines; hint the slice 8 ahead so
    // its loads overlap this iteration's FMAs (safe past the panel end).
    PrefetchRead(pb + (l + 8) * kPanel512);
    PrefetchRead(pb + (l + 8) * kPanel512 + 16);
    const __m512 b0 = _mm512_loadu_ps(pb + l * kPanel512);
    const __m512 b1 = _mm512_loadu_ps(pb + l * kPanel512 + 16);
    for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * lda + l]);
      lo[r] = _mm512_fmadd_ps(av, b0, lo[r]);
      hi[r] = _mm512_fmadd_ps(av, b1, hi[r]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    _mm512_storeu_ps(c + r * ldc, lo[r]);
    _mm512_storeu_ps(c + r * ldc + 16, hi[r]);
  }
}

template <int MR>
void RowBlockNN512(int64_t n, int64_t k, const float* a, int64_t lda,
                   const float* packed_b, float* c, int64_t ldc,
                   bool accumulate) {
  const int64_t panels = (n + kPanel512 - 1) / kPanel512;
  for (int64_t l0 = 0; l0 < k; l0 += kKc) {
    const int64_t kc = std::min(kKc, k - l0);
    const bool load_c = accumulate || l0 > 0;
    for (int64_t p = 0; p < panels; ++p) {
      const float* pb = packed_b + (p * k + l0) * kPanel512;
      const int64_t j0 = p * kPanel512;
      const int64_t ncols = std::min(kPanel512, n - j0);
      if (ncols == kPanel512) {
        MicroNN512<MR>(kc, a + l0, lda, pb, c + j0, ldc, load_c);
      } else {
        float tmp[8 * kPanel512];
        for (int r = 0; r < MR; ++r) {
          for (int64_t t = 0; t < kPanel512; ++t) {
            tmp[r * kPanel512 + t] =
                (load_c && t < ncols) ? c[r * ldc + j0 + t] : 0.0f;
          }
        }
        MicroNN512<MR>(kc, a + l0, lda, pb, tmp, kPanel512, /*load_c=*/true);
        for (int r = 0; r < MR; ++r) {
          for (int64_t t = 0; t < ncols; ++t) {
            c[r * ldc + j0 + t] = tmp[r * kPanel512 + t];
          }
        }
      }
    }
  }
}

}  // namespace

bool Avx512GemmNNPacked(int64_t r0, int64_t r1, int64_t n, int64_t k,
                        const float* a, const float* packed_b, float* c,
                        bool accumulate) {
  constexpr int64_t kMr = 8;
  int64_t i = r0;
  for (; i + kMr <= r1; i += kMr) {
    RowBlockNN512<8>(n, k, a + i * k, k, packed_b, c + i * n, n, accumulate);
  }
  const float* ar = a + i * k;
  float* cr = c + i * n;
  switch (r1 - i) {
    case 7: RowBlockNN512<7>(n, k, ar, k, packed_b, cr, n, accumulate); break;
    case 6: RowBlockNN512<6>(n, k, ar, k, packed_b, cr, n, accumulate); break;
    case 5: RowBlockNN512<5>(n, k, ar, k, packed_b, cr, n, accumulate); break;
    case 4: RowBlockNN512<4>(n, k, ar, k, packed_b, cr, n, accumulate); break;
    case 3: RowBlockNN512<3>(n, k, ar, k, packed_b, cr, n, accumulate); break;
    case 2: RowBlockNN512<2>(n, k, ar, k, packed_b, cr, n, accumulate); break;
    case 1: RowBlockNN512<1>(n, k, ar, k, packed_b, cr, n, accumulate); break;
    default: break;
  }
  return true;
}

#else  // !CDCL_HAVE_AVX512_TU

bool Avx512GemmNNPacked(int64_t, int64_t, int64_t, int64_t, const float*,
                        const float*, float*, bool) {
  return false;
}

#endif  // CDCL_HAVE_AVX512_TU

}  // namespace internal
}  // namespace kernels
}  // namespace cdcl
