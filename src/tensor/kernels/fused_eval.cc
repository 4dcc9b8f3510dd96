#include "tensor/kernels/fused_eval.h"

#include "tensor/kernels/matmul_kernel.h"
#include "tensor/kernels/parallel.h"
#include "tensor/kernels/scalar_math.h"
#include "tensor/kernels/vec_math.h"

namespace cdcl {
namespace kernels {
namespace {

/// One attention score row epilogue: s = (s + bias) * scale, then optionally
/// softmax, in place. Bias add and scale stay separate float ops (not one
/// fma) to match ops::Add followed by ops::MulScalar exactly.
void ScoreEpilogueRow(float* s, int64_t n, const float* bias, float scale,
                      bool softmax) {
  if (bias != nullptr) {
    for (int64_t j = 0; j < n; ++j) s[j] = (s[j] + bias[j]) * scale;
  } else {
    for (int64_t j = 0; j < n; ++j) s[j] = s[j] * scale;
  }
  if (softmax) SoftmaxRow(s, s, n);
}

}  // namespace

void BiasAddMap(int64_t n, int64_t period, float* x, const float* bias) {
  BroadcastMap(n, period,
               [x, bias](int64_t i, int64_t j) { x[i] = x[i] + bias[j]; });
}

void BiasGeluMap(int64_t n, int64_t period, float* x, const float* bias) {
  // One chunked pass: add the bias into the chunk (incremental j wrap, like
  // BroadcastMap), then run the SIMD GELU sweep over that same still-hot
  // chunk. Per element gelu(x + bias) — the same values as ops::Add followed
  // by ops::Gelu.
  ParallelChunks(n, kEltwiseGrain,
                 [x, bias, period](int64_t begin, int64_t end) {
                   int64_t j = begin % period;
                   for (int64_t i = begin; i < end; ++i) {
                     x[i] = x[i] + bias[j];
                     if (++j == period) j = 0;
                   }
                   GeluPs(end - begin, x + begin, x + begin);
                 });
}

void SoftmaxRows(int64_t rows, int64_t n, float* x) {
  RowMap(rows, n, [x, n](int64_t r) { SoftmaxRow(x + r * n, x + r * n, n); });
}

void FusedAttentionEval(int64_t b, int64_t n, int64_t d, const float* q,
                        const float* k, const float* v, const float* bias,
                        float scale, bool softmax, float* probs, float* out) {
  // Each sample's probs slice is touched only by the chunk that owns the
  // sample (exactly one, per the ParallelChunks contract), so the sweep is
  // race-free.
  ForEachBatch(b, [=](int64_t bi) {
    float* pb = probs + bi * n * n;
    GemmNT(n, n, d, q + bi * n * d, k + bi * n * d, pb, /*accumulate=*/false);
    for (int64_t r = 0; r < n; ++r) {
      ScoreEpilogueRow(pb + r * n, n, bias, scale, softmax);
    }
    GemmNN(n, d, n, pb, v + bi * n * d, out + bi * n * d,
           /*accumulate=*/false);
  });
}

}  // namespace kernels
}  // namespace cdcl
