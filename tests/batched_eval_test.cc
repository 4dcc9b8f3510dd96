// Equivalence harness for the fused batched inference path: the fused
// forward (flattened projection GEMMs + fused score/bias/softmax + fused MLP
// epilogues, kernels/fused_eval.h) must be bitwise identical to the op-by-op
// tensor path, per sample and per batch, across 1/2/8 threads and across the
// ISA caps (scalar / AVX2 / AVX-512 GEMM and vec-math tiers). This is the contract
// that lets EvaluateTil/EvaluateCil, dataset encoding and memory snapshots
// ride the fused path without any accuracy drift vs the seed behavior.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "models/compact_transformer.h"
#include "nn/attention.h"
#include "nn/module.h"
#include "tensor/kernels/kernel_context.h"
#include "tensor/kernels/matmul_kernel.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace cdcl {
namespace {

/// Restores thread count, ISA cap and fused-eval toggle when a scope ends,
/// so no test leaks settings into the next.
class DispatchScope {
 public:
  DispatchScope(int64_t threads, kernels::IsaCap cap) {
    kernels::SetNumThreads(threads);
    kernels::SetIsaCap(cap);
  }
  ~DispatchScope() {
    kernels::SetNumThreads(0);
    kernels::SetIsaCap(kernels::IsaCap::kAvx512);
    nn::SetFusedEval(true);
  }
};

const int64_t kThreadCounts[] = {1, 2, 8};

/// Every ISA cap; one above what the host has resolves to its widest tier.
const kernels::IsaCap kCaps[] = {kernels::IsaCap::kScalar,
                                 kernels::IsaCap::kAvx2,
                                 kernels::IsaCap::kAvx512};

std::string CapName(kernels::IsaCap cap) {
  return std::to_string(static_cast<int>(cap));
}

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b,
                        const std::string& context) {
  ASSERT_TRUE(a.shape() == b.shape()) << context;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.NumElements(); ++i) {
    ASSERT_EQ(std::memcmp(&pa[i], &pb[i], sizeof(float)), 0)
        << context << " diverges at element " << i << ": " << pa[i] << " vs "
        << pb[i];
  }
}

struct ModelFixture {
  explicit ModelFixture(bool softmax_attention) : rng(7) {
    models::ModelConfig config;
    config.image_hw = 8;
    config.channels = 3;
    config.embed_dim = 24;
    config.num_layers = 2;
    config.softmax_attention = softmax_attention;
    model = std::make_unique<models::CompactTransformer>(config, &rng);
    model->AddTask(2);
    model->AddTask(2);
    model->SetTraining(false);
    images = Tensor::Randn(Shape{6, 3, 8, 8}, &rng);
  }

  Rng rng;
  std::unique_ptr<models::CompactTransformer> model;
  Tensor images;
};

// The fused batched forward must equal the op-by-op forward bit for bit, for
// every ISA cap at every thread count (both paths evaluated under the same
// dispatch settings).
TEST(BatchedEvalTest, FusedForwardMatchesOpPathBitwise) {
  for (const bool softmax : {true, false}) {
    ModelFixture fx(softmax);
    const int64_t task = 1;
    for (kernels::IsaCap cap : kCaps) {
      for (int64_t threads : kThreadCounts) {
        DispatchScope scope(threads, cap);
        NoGradGuard no_grad;
        nn::SetFusedEval(false);
        Tensor reference = fx.model->EncodeSelf(fx.images, task);
        nn::SetFusedEval(true);
        Tensor fused = fx.model->EncodeSelf(fx.images, task);
        Tensor api = fx.model->EncodeSelfBatched(fx.images, task);
        const std::string context =
            "cap=" + CapName(cap) + " threads=" + std::to_string(threads) +
            " softmax=" + std::to_string(softmax);
        ExpectBitwiseEqual(reference, fused, context + " (fused vs op path)");
        ExpectBitwiseEqual(reference, api, context + " (EncodeSelfBatched)");
      }
    }
  }
}

// Batching must not change any sample's encoding: the batched forward equals
// the concatenation of single-sample forwards bit for bit under every ISA
// cap. The dispatcher does pick different kernels for batch-1 vs batch-N
// flattened GEMMs (the packed rule needs m >= 8), but every kernel computes
// the same fma chain, so the choice cannot show.
TEST(BatchedEvalTest, BatchedMatchesPerSampleBitwise) {
  ModelFixture fx(/*softmax_attention=*/true);
  const int64_t task = 0;
  for (kernels::IsaCap cap : kCaps) {
    for (int64_t threads : kThreadCounts) {
      DispatchScope scope(threads, cap);
      Tensor batched = fx.model->EncodeSelfBatched(fx.images, task);
      const int64_t b = fx.images.dim(0);
      const int64_t d = batched.dim(1);
      for (int64_t i = 0; i < b; ++i) {
        NoGradGuard no_grad;
        Tensor xi = ops::Slice0(fx.images, i, 1);
        Tensor zi = fx.model->EncodeSelfBatched(xi, task);
        for (int64_t j = 0; j < d; ++j) {
          ASSERT_EQ(zi.at(int64_t{0}, j), batched.at(i, j))
              << "cap=" << CapName(cap) << " threads=" << threads
              << " sample=" << i << " dim=" << j;
        }
      }
    }
  }
}

// Thread-count invariance of the fused path itself: one reference capture at
// a single thread, then bitwise identity at 2 and 8 threads per ISA cap.
TEST(BatchedEvalTest, FusedPathIsThreadInvariant) {
  ModelFixture fx(/*softmax_attention=*/true);
  const int64_t task = 1;
  for (kernels::IsaCap cap : kCaps) {
    Tensor reference;
    for (int64_t threads : kThreadCounts) {
      DispatchScope scope(threads, cap);
      Tensor z = fx.model->EncodeSelfBatched(fx.images, task);
      if (!reference.defined()) {
        reference = z;
        continue;
      }
      ExpectBitwiseEqual(reference, z,
                         "cap=" + CapName(cap) +
                             " threads=" + std::to_string(threads));
    }
  }
}

// The fused layer primitives also hold component-wise; exercising them
// directly localizes a future regression to attention vs MLP vs pooling.
TEST(BatchedEvalTest, FusedComponentsMatchOpPath) {
  Rng rng(11);
  const int64_t b = 5, n = 16, d = 24;
  nn::TransformerEncoderLayer layer(d, n, 2 * d, &rng,
                                    /*softmax_scores=*/true,
                                    /*freeze_old_keys=*/true);
  layer.AddTask();
  layer.SetTraining(false);
  Tensor x = Tensor::Randn(Shape{b, n, d}, &rng);
  nn::SequencePool pool(d, &rng);
  for (int64_t threads : kThreadCounts) {
    DispatchScope scope(threads, kernels::IsaCap::kAvx512);
    NoGradGuard no_grad;
    ExpectBitwiseEqual(layer.SelfForward(x, 0), layer.SelfForwardFused(x, 0),
                       "encoder layer, threads=" + std::to_string(threads));
    ExpectBitwiseEqual(pool.Forward(x), pool.ForwardFused(x),
                       "sequence pool, threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace cdcl
