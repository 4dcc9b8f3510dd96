#include "tensor/kernels/layernorm.h"

#include <cmath>

#include "tensor/kernels/parallel.h"

namespace cdcl {
namespace kernels {
namespace {

/// Virtual lane count for the row moments. One portable definition
/// (the compiler vectorizes the fixed-width inner loop), so the accumulation
/// order depends only on the row width — never on the ISA or thread count.
constexpr int64_t kMomentLanes = 8;

/// Fixed pairwise combine of the virtual-lane partials.
inline float CombineLanes(const float* acc) {
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/// Row sum in virtual lanes; the ragged tail folds into lanes 0.. in order.
inline float LaneSum(const float* xr, int64_t d) {
  float acc[kMomentLanes] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  int64_t j = 0;
  for (; j + kMomentLanes <= d; j += kMomentLanes) {
    for (int64_t t = 0; t < kMomentLanes; ++t) acc[t] += xr[j + t];
  }
  for (int64_t t = 0; j < d; ++j, ++t) acc[t] += xr[j];
  return CombineLanes(acc);
}

/// Row sum of centered squares in virtual lanes.
inline float LaneSumSq(const float* xr, int64_t d, float mean) {
  float acc[kMomentLanes] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  int64_t j = 0;
  for (; j + kMomentLanes <= d; j += kMomentLanes) {
    for (int64_t t = 0; t < kMomentLanes; ++t) {
      const float c = xr[j + t] - mean;
      acc[t] += c * c;
    }
  }
  for (int64_t t = 0; j < d; ++j, ++t) {
    const float c = xr[j] - mean;
    acc[t] += c * c;
  }
  return CombineLanes(acc);
}

}  // namespace

void LayerNormForwardRows(int64_t rows, int64_t d, const float* x,
                          const float* gamma, const float* beta, float eps,
                          float* out, float* inv_std, float* xhat) {
  RowMap(rows, d, [=](int64_t r) {
    const float* xr = x + r * d;
    const float mean = LaneSum(xr, d) / static_cast<float>(d);
    const float var = LaneSumSq(xr, d, mean) / static_cast<float>(d);
    const float istd = 1.0f / std::sqrt(var + eps);
    if (inv_std != nullptr) inv_std[r] = istd;
    // `h` is computed in a register either way, so skipping the xhat stores
    // (eval callers pass nullptr) leaves `out` bitwise unchanged.
    if (xhat != nullptr) {
      for (int64_t j = 0; j < d; ++j) {
        const float h = (xr[j] - mean) * istd;
        xhat[r * d + j] = h;
        out[r * d + j] = h * gamma[j] + beta[j];
      }
    } else {
      for (int64_t j = 0; j < d; ++j) {
        const float h = (xr[j] - mean) * istd;
        out[r * d + j] = h * gamma[j] + beta[j];
      }
    }
  });
}

void LayerNormBackwardRows(int64_t rows, int64_t d, const float* g,
                           const float* gamma, const float* xhat,
                           const float* inv_std, float* gx, float* ggamma,
                           float* gbeta) {
  // Per-slot accumulation sweeps rows in ascending order — the same order as
  // a serial row loop, so parallelizing over slots is bitwise invisible.
  if (ggamma != nullptr) {
    BroadcastReduce(rows * d, d, [=](int64_t i, int64_t j) {
      ggamma[j] += g[i] * xhat[i];
    });
  }
  if (gbeta != nullptr) {
    BroadcastReduce(rows * d, d,
                    [=](int64_t i, int64_t j) { gbeta[j] += g[i]; });
  }
  if (gx != nullptr) {
    RowMap(rows, d, [=](int64_t r) {
      const float* gr = g + r * d;
      const float* hr = xhat + r * d;
      // dx = istd * (dyg - mean(dyg) - xhat * mean(dyg*xhat))
      float m1 = 0.0f, m2 = 0.0f;
      for (int64_t j = 0; j < d; ++j) {
        const float dyg = gr[j] * gamma[j];
        m1 += dyg;
        m2 += dyg * hr[j];
      }
      m1 /= static_cast<float>(d);
      m2 /= static_cast<float>(d);
      const float istd = inv_std[r];
      float* gxr = gx + r * d;
      for (int64_t j = 0; j < d; ++j) {
        const float dyg = gr[j] * gamma[j];
        gxr[j] += istd * (dyg - m1 - hr[j] * m2);
      }
    });
  }
}

}  // namespace kernels
}  // namespace cdcl
