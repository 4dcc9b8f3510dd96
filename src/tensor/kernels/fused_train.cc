#include "tensor/kernels/fused_train.h"

#include "tensor/kernels/parallel.h"

namespace cdcl {
namespace kernels {

void SoftmaxBackwardRows(int64_t rows, int64_t n, const float* y, float* g) {
  RowMap(rows, n, [y, g, n](int64_t r) {
    const float* yr = y + r * n;
    float* gr = g + r * n;
    float dot = 0.0f;
    for (int64_t j = 0; j < n; ++j) dot += gr[j] * yr[j];
    for (int64_t j = 0; j < n; ++j) gr[j] = yr[j] * (gr[j] - dot);
  });
}

void ScaleBackwardMap(int64_t n, float scale, float* g) {
  EltwiseMap(n, [scale, g](int64_t i) { g[i] = 0.0f + g[i] * scale; });
}

void BiasGradReduce(int64_t n, int64_t period, const float* g, float* gbias) {
  BroadcastReduce(n, period,
                  [g, gbias](int64_t i, int64_t j) { gbias[j] += g[i]; });
}

}  // namespace kernels
}  // namespace cdcl
