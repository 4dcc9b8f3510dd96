// Finite-difference verification of every differentiable op, including a
// parameterized sweep over random shapes (property-style) and a re-run of
// the GEMM-heavy ops forced through the packed/SIMD kernel path.

#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/arena.h"
#include "tensor/fused_train.h"
#include "tensor/gradcheck.h"
#include "tensor/kernels/kernel_context.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace cdcl {
namespace {

Tensor RandInput(const Shape& shape, uint64_t seed, float stddev = 1.0f) {
  Rng rng(seed);
  return Tensor::Randn(shape, &rng, stddev, /*requires_grad=*/true);
}

#define EXPECT_GRADCHECK_OK(result)                                   \
  do {                                                                \
    GradCheckResult r = (result);                                     \
    EXPECT_TRUE(r.passed) << r.detail                                 \
                          << " max_abs=" << r.max_abs_error           \
                          << " max_rel=" << r.max_rel_error;          \
  } while (false)

TEST(GradCheckTest, Add) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) { return ops::Sum(in[0] + in[1]); },
      {RandInput(Shape{3, 4}, 1), RandInput(Shape{3, 4}, 2)}));
}

TEST(GradCheckTest, AddBroadcastBias) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Sum(ops::Square(in[0] + in[1]));
      },
      {RandInput(Shape{3, 4}, 3), RandInput(Shape{4}, 4)}));
}

TEST(GradCheckTest, MulAndDiv) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Sum(in[0] * in[1] / ops::AddScalar(ops::Square(in[1]), 1.0f));
      },
      {RandInput(Shape{2, 3}, 5), RandInput(Shape{2, 3}, 6)}));
}

TEST(GradCheckTest, MatMul) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Sum(ops::Square(ops::MatMul(in[0], in[1])));
      },
      {RandInput(Shape{3, 4}, 7), RandInput(Shape{4, 2}, 8)}));
}

TEST(GradCheckTest, BatchMatMul) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Sum(ops::Square(ops::BatchMatMul(in[0], in[1])));
      },
      {RandInput(Shape{2, 3, 4}, 9), RandInput(Shape{2, 4, 2}, 10)}));
}

TEST(GradCheckTest, Transpose) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Sum(ops::Square(ops::Transpose(in[0])));
      },
      {RandInput(Shape{3, 5}, 11)}));
}

TEST(GradCheckTest, TransposeLast2) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Sum(ops::Square(ops::TransposeLast2(in[0])));
      },
      {RandInput(Shape{2, 3, 4}, 12)}));
}

TEST(GradCheckTest, UnaryChain) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Sum(ops::Tanh(ops::Sigmoid(in[0]) * 3.0f));
      },
      {RandInput(Shape{4, 3}, 13)}));
}

TEST(GradCheckTest, Relu) {
  // Keep values away from the kink for finite differences.
  Tensor x = RandInput(Shape{5, 5}, 14);
  for (int64_t i = 0; i < x.NumElements(); ++i) {
    if (std::abs(x.data()[i]) < 0.05f) x.data()[i] = 0.2f;
  }
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) { return ops::Sum(ops::Relu(in[0])); },
      {x}));
}

TEST(GradCheckTest, Gelu) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) { return ops::Sum(ops::Gelu(in[0])); },
      {RandInput(Shape{4, 4}, 15)}));
}

TEST(GradCheckTest, ExpLogSqrt) {
  Tensor x = RandInput(Shape{3, 3}, 16);
  for (int64_t i = 0; i < x.NumElements(); ++i) {
    x.data()[i] = std::abs(x.data()[i]) + 0.5f;  // keep positive
  }
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Sum(ops::Sqrt(ops::Exp(ops::Log(in[0]))));
      },
      {x}));
}

TEST(GradCheckTest, Softmax) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        Tensor s = ops::Softmax(in[0]);
        return ops::Sum(ops::Square(s));
      },
      {RandInput(Shape{3, 6}, 17)}));
}

TEST(GradCheckTest, LogSoftmax) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Sum(ops::Square(ops::LogSoftmax(in[0])));
      },
      {RandInput(Shape{2, 5}, 18)}));
}

TEST(GradCheckTest, LayerNorm) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Sum(ops::Square(ops::LayerNorm(in[0], in[1], in[2])));
      },
      {RandInput(Shape{4, 8}, 19), RandInput(Shape{8}, 20),
       RandInput(Shape{8}, 21)}));
}

TEST(GradCheckTest, Conv2d) {
  // Mean keeps the loss scale small: float32 central differences on a large
  // summed loss lose too many bits otherwise.
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Mean(ops::Square(ops::Conv2d(in[0], in[1], in[2], 1, 1)));
      },
      {RandInput(Shape{2, 2, 5, 5}, 22, 0.5f),
       RandInput(Shape{3, 2, 3, 3}, 23, 0.5f), RandInput(Shape{3}, 24, 0.5f)},
      /*epsilon=*/2e-2));
}

TEST(GradCheckTest, Conv2dStride2NoBias) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Sum(ops::Square(ops::Conv2d(in[0], in[1], Tensor(), 2, 0)));
      },
      {RandInput(Shape{1, 1, 6, 6}, 25), RandInput(Shape{2, 1, 2, 2}, 26)}));
}

TEST(GradCheckTest, MaxPool) {
  // Spread values so the argmax is stable under the FD perturbation.
  Rng rng(27);
  Tensor x = Tensor::RandUniform(Shape{1, 2, 4, 4}, &rng, 0.0f, 10.0f, true);
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Sum(ops::Square(ops::MaxPool2d(in[0], 2, 2)));
      },
      {x}));
}

TEST(GradCheckTest, CrossEntropy) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::CrossEntropy(in[0], {1, 0, 3});
      },
      {RandInput(Shape{3, 4}, 28)}));
}

TEST(GradCheckTest, SoftCrossEntropyBothInputs) {
  Tensor probs = RandInput(Shape{2, 4}, 29);
  // Make targets a proper distribution (softmax of random) but keep the
  // underlying tensor differentiable.
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::SoftCrossEntropy(in[0], ops::Softmax(in[1]));
      },
      {RandInput(Shape{2, 4}, 30), probs}));
}

TEST(GradCheckTest, KlDivergence) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        Tensor target = Tensor::FromVector(Shape{2, 3}, {1, 0, -1, 2, 1, 0});
        return ops::KlDivergenceToTarget(in[0], target);
      },
      {RandInput(Shape{2, 3}, 31)}));
}

TEST(GradCheckTest, SliceConcatIndex) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        Tensor c = ops::Concat0({in[0], in[1]});
        Tensor s = ops::Slice0(c, 1, 3);
        Tensor g = ops::IndexRows(s, {0, 2, 2});
        return ops::Sum(ops::Square(g));
      },
      {RandInput(Shape{2, 3}, 32), RandInput(Shape{2, 3}, 33)}));
}

// Hand-written backward closures of the fused training path (the three
// nodes of tensor/fused_train.h): finite differences against every
// participating input, with softmax scores on and off, the self-attention
// aliasing case (one tensor feeding both streams), the first-layer cross
// case without a residual, and a re-run inside an ArenaScope so the
// closures' step-scoped scratch is exercised too.

TEST(GradCheckTest, FusedSequencePoolTrain) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Mean(ops::Square(
            ops::FusedSequencePoolTrain(in[0], in[1], in[2])));
      },
      {RandInput(Shape{2, 5, 4}, 241), RandInput(Shape{4, 1}, 242),
       RandInput(Shape{1}, 243)}));
}

TEST(GradCheckTest, FusedAttentionLayerTrainSelfAliased) {
  // The SelfForward block shape: one tensor is residual, q stream and kv
  // stream at once, and the folded pre-norm's gamma/beta gradients must
  // cover all three projection chains through the single LN backward.
  for (const bool softmax : {true, false}) {
    EXPECT_GRADCHECK_OK(GradCheck(
        [softmax](const std::vector<Tensor>& in) {
          return ops::Mean(ops::Square(ops::FusedAttentionLayerTrain(
              in[0], in[0], in[1], in[2], 1e-5f, in[3], in[4], in[5], in[6],
              0.5f, softmax, /*residual=*/in[0])));
        },
        {RandInput(Shape{2, 3, 4}, 271), RandInput(Shape{4}, 272),
         RandInput(Shape{4}, 273), RandInput(Shape{4, 4}, 274),
         RandInput(Shape{4, 4}, 275), RandInput(Shape{4, 4}, 276),
         RandInput(Shape{3}, 277)}));
  }
}

TEST(GradCheckTest, FusedAttentionLayerTrainCrossTwoStream) {
  // The CrossForward block shape: two distinct streams normed by the SAME
  // gamma/beta (the two-stream accumulation case — the kv-stream LN backward
  // folded into the node, the q-stream LN in its companion node, both
  // accumulating into the shared parameters), with a separate residual and
  // without one (the first layer's pure cross-attention).
  for (const bool softmax : {true, false}) {
    for (const bool with_residual : {true, false}) {
      SCOPED_TRACE(std::string("softmax=") + (softmax ? "on" : "off") +
                   " residual=" + (with_residual ? "on" : "off"));
      EXPECT_GRADCHECK_OK(GradCheck(
          [softmax, with_residual](const std::vector<Tensor>& in) {
            return ops::Mean(ops::Square(ops::FusedAttentionLayerTrain(
                in[0], in[1], in[2], in[3], 1e-5f, in[4], in[5], in[6], in[7],
                0.5f, softmax,
                /*residual=*/with_residual ? in[8] : Tensor())));
          },
          {RandInput(Shape{2, 3, 4}, 281), RandInput(Shape{2, 3, 4}, 282),
           RandInput(Shape{4}, 283), RandInput(Shape{4}, 284),
           RandInput(Shape{4, 4}, 285), RandInput(Shape{4, 4}, 286),
           RandInput(Shape{4, 4}, 287), RandInput(Shape{3}, 288),
           RandInput(Shape{2, 3, 4}, 289)},
          /*epsilon=*/1e-2));
    }
  }
}

TEST(GradCheckTest, FusedFeedForwardLayerTrainWithResidual) {
  // The MLP sublayer with norm2 folded in; the residual aliases the raw
  // input like the encoder block's h.
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Mean(ops::Square(ops::FusedFeedForwardLayerTrain(
            in[0], in[1], in[2], 1e-5f, in[3], in[4], in[5], in[6],
            /*residual=*/in[0])));
      },
      {RandInput(Shape{2, 3, 4}, 291), RandInput(Shape{4}, 292),
       RandInput(Shape{4}, 293), RandInput(Shape{4, 6}, 294),
       RandInput(Shape{6}, 295), RandInput(Shape{6, 4}, 296),
       RandInput(Shape{4}, 297)}));
}

TEST(GradCheckTest, Conv2dReluMatchesReluOfConvBitwise) {
  // The fused conv+ReLU node's contract is exact equality with the op pair,
  // values and gradients, which also pins the mask-from-output backward
  // (finite differences would be flaky at the ReLU kink).
  Tensor x = RandInput(Shape{2, 2, 5, 5}, 271, 0.5f);
  Tensor w = RandInput(Shape{3, 2, 3, 3}, 272, 0.5f);
  Tensor bias = RandInput(Shape{3}, 273, 0.5f);
  auto run = [&](bool fused) {
    x.ZeroGrad();
    w.ZeroGrad();
    bias.ZeroGrad();
    Tensor y = fused ? ops::Conv2dRelu(x, w, bias, 1, 1)
                     : ops::Relu(ops::Conv2d(x, w, bias, 1, 1));
    Tensor loss = ops::Mean(ops::Square(y));
    loss.Backward();
    std::vector<std::vector<float>> out = {y.ToVector(),
                                           x.GradTensor().ToVector(),
                                           w.GradTensor().ToVector(),
                                           bias.GradTensor().ToVector()};
    return out;
  };
  auto reference = run(false);
  auto fused = run(true);
  ASSERT_EQ(reference.size(), fused.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(reference[i].size(), fused[i].size()) << i;
    for (size_t j = 0; j < reference[i].size(); ++j) {
      ASSERT_EQ(std::memcmp(&reference[i][j], &fused[i][j], sizeof(float)), 0)
          << "tensor " << i << " elem " << j;
    }
  }
}

TEST(GradCheckTest, FusedTrainInsideArenaScope) {
  // The closures allocate their gradient scratch as ordinary tensors; under
  // a step scope those come from the arena — as do the leaf inputs and
  // (per assign_like, matching their data's storage class) their grads,
  // since everything here is created inside the scope. One scope spans the
  // whole check, so all of it stays valid until the end. The attention node
  // runs self-aliased without a task bias; the MLP node runs without its
  // residual, the branch no encoder block takes.
  Arena arena;
  ArenaScope scope(&arena);
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        Tensor attended = ops::FusedAttentionLayerTrain(
            in[0], in[0], in[1], in[2], 1e-5f, in[3], in[4], in[5], Tensor(),
            0.5f, /*softmax=*/true, /*residual=*/in[0]);
        return ops::Mean(ops::Square(ops::FusedFeedForwardLayerTrain(
            attended, in[1], in[2], 1e-5f, in[6], in[7], in[8], in[9])));
      },
      {RandInput(Shape{2, 3, 4}, 231), RandInput(Shape{4}, 232),
       RandInput(Shape{4}, 233), RandInput(Shape{4, 4}, 234),
       RandInput(Shape{4, 4}, 235), RandInput(Shape{4, 4}, 236),
       RandInput(Shape{4, 6}, 237), RandInput(Shape{6}, 238),
       RandInput(Shape{6, 4}, 239), RandInput(Shape{4}, 240)}));
}

// End-to-end backward correctness over the packed/SIMD GEMM kernels and the
// parallel conv backward: the same finite-difference checks with the kernel
// pool at 4 threads, and MatMul shapes past the packed rule (m >= 8,
// n >= 16, k >= 16), so the packed forward, the packed NT input gradient
// and the SIMD TN weight gradient all run, as does the per-chunk conv grad
// scratch the big shapes hit.
class ThreadedKernelGradCheck : public ::testing::Test {
 protected:
  void SetUp() override { kernels::SetNumThreads(4); }
  void TearDown() override { kernels::SetNumThreads(0); }
};

TEST_F(ThreadedKernelGradCheck, MatMul) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Sum(ops::Square(ops::MatMul(in[0], in[1])));
      },
      {RandInput(Shape{8, 16}, 101, 0.5f), RandInput(Shape{16, 16}, 102, 0.5f)},
      /*epsilon=*/2e-2));
}

TEST_F(ThreadedKernelGradCheck, BatchMatMul) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Sum(ops::Square(ops::BatchMatMul(in[0], in[1])));
      },
      {RandInput(Shape{2, 8, 16}, 103, 0.5f),
       RandInput(Shape{2, 16, 16}, 104, 0.5f)},
      /*epsilon=*/2e-2));
}

TEST_F(ThreadedKernelGradCheck, Conv2dMultiSampleBatch) {
  // Batch of 3 so the conv backward fans out and reduces per-chunk scratch.
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Mean(ops::Square(ops::Conv2d(in[0], in[1], in[2], 1, 1)));
      },
      {RandInput(Shape{3, 2, 5, 5}, 105, 0.5f),
       RandInput(Shape{3, 2, 3, 3}, 106, 0.5f),
       RandInput(Shape{3}, 107, 0.5f)},
      /*epsilon=*/2e-2));
}

TEST_F(ThreadedKernelGradCheck, Conv2dStride2NoBias) {
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Sum(ops::Square(ops::Conv2d(in[0], in[1], Tensor(), 2, 0)));
      },
      {RandInput(Shape{2, 1, 6, 6}, 108), RandInput(Shape{2, 1, 2, 2}, 109)}));
}

// Property-style sweep: random shapes for a composite expression.
class GradCheckShapeSweep : public ::testing::TestWithParam<int> {};

TEST_P(GradCheckShapeSweep, CompositeExpression) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  const int64_t m = 1 + static_cast<int64_t>(rng.NextBelow(4));
  const int64_t k = 1 + static_cast<int64_t>(rng.NextBelow(4));
  const int64_t n = 1 + static_cast<int64_t>(rng.NextBelow(4));
  EXPECT_GRADCHECK_OK(GradCheck(
      [](const std::vector<Tensor>& in) {
        Tensor h = ops::Tanh(ops::MatMul(in[0], in[1]));
        Tensor s = ops::Softmax(h);
        return ops::Mean(ops::Square(s + in[2]));
      },
      {RandInput(Shape{m, k}, static_cast<uint64_t>(seed) * 3 + 1),
       RandInput(Shape{k, n}, static_cast<uint64_t>(seed) * 3 + 2),
       RandInput(Shape{n}, static_cast<uint64_t>(seed) * 3 + 3)}));
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, GradCheckShapeSweep,
                         ::testing::Range(1, 13));

}  // namespace
}  // namespace cdcl
