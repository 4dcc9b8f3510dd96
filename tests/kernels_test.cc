// Kernel-dispatch layer coverage: kernel-vs-serial equivalence (exact for
// elementwise/matmul, tolerance for reductions), thread-count determinism,
// and gradcheck over the migrated GEMM-backed backward paths.

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/gradcheck.h"
#include "tensor/kernels/kernel_context.h"
#include "tensor/kernels/matmul_kernel.h"
#include "tensor/kernels/parallel.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace cdcl {
namespace {

/// Restores the global thread override when a test scope ends.
class ThreadScope {
 public:
  explicit ThreadScope(int64_t n) { kernels::SetNumThreads(n); }
  ~ThreadScope() { kernels::SetNumThreads(0); }
};

std::vector<float> RandVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Gaussian(0.0, 1.0));
  return v;
}

/// Plain triple-loop reference: C = A(m,k) * B(k,n), k ascending.
std::vector<float> NaiveMatMul(const std::vector<float>& a,
                               const std::vector<float>& b, int64_t m,
                               int64_t k, int64_t n) {
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t l = 0; l < k; ++l) {
        acc += a[static_cast<size_t>(i * k + l)] * b[static_cast<size_t>(l * n + j)];
      }
      c[static_cast<size_t>(i * n + j)] = acc;
    }
  }
  return c;
}

TEST(KernelContextTest, ThreadCountOverrideAndDefault) {
  kernels::SetNumThreads(3);
  EXPECT_EQ(kernels::GetNumThreads(), 3);
  kernels::SetNumThreads(0);
  EXPECT_GE(kernels::GetNumThreads(), 1);
}

TEST(KernelContextTest, ParallelForCoversEveryIndexOnce) {
  ThreadScope threads(4);
  constexpr int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  kernels::ParallelFor(kN, 64, [&hits](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(KernelContextTest, ReduceMatchesSerialSweepBitwise) {
  const std::vector<float> v = RandVec(100000, 1);
  auto run = [&] {
    return kernels::ReduceSum(static_cast<int64_t>(v.size()),
                              [&v](int64_t i) { return double{v[i]}; });
  };
  double serial, parallel;
  {
    ThreadScope threads(1);
    serial = run();
  }
  {
    ThreadScope threads(4);
    parallel = run();
  }
  EXPECT_EQ(serial, parallel);  // fixed per-chunk partials: bitwise stable
  double naive = 0.0;
  for (float x : v) naive += x;
  EXPECT_NEAR(serial, naive, 1e-3 * std::abs(naive) + 1e-6);
}

TEST(KernelContextTest, ZeroElementBinaryOpBackwardIsNoOp) {
  // Regression: BroadcastReduce(0, 0) must not divide by zero computing the
  // grain (zero-element tensors reach it via BinaryOp's backward).
  Tensor a = Tensor::Zeros(Shape{0, 3}, /*requires_grad=*/true);
  Tensor b = Tensor::Zeros(Shape{0, 3}, /*requires_grad=*/true);
  Tensor loss = ops::Sum(ops::Add(a, b));
  loss.Backward();
  EXPECT_EQ(a.GradTensor().NumElements(), 0);
}

TEST(KernelContextTest, BroadcastMapMatchesModulo) {
  ThreadScope threads(4);
  constexpr int64_t kN = 30000, kPeriod = 7;
  std::vector<int64_t> got(kN, -1);
  kernels::BroadcastMap(kN, kPeriod,
                        [&got](int64_t i, int64_t j) { got[i] = j; });
  for (int64_t i = 0; i < kN; ++i) ASSERT_EQ(got[i], i % kPeriod) << i;
}

TEST(KernelContextTest, NestedParallelRunsSerially) {
  ThreadScope threads(4);
  std::atomic<int> total{0};
  kernels::ParallelFor(8, 1, [&total](int64_t) {
    EXPECT_TRUE(kernels::KernelContext::InParallelRegion());
    kernels::ParallelFor(100, 10, [&total](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 800);
}

// The batch-invariant GEMM policy is thread-local; a region must carry the
// launcher's setting into every chunk, whichever pool thread runs it, and
// leave each thread's own setting as it found it.
TEST(KernelContextTest, RegionChunksRunUnderLauncherGemmPolicy) {
  ThreadScope threads(4);
  constexpr int64_t kChunks = 64;
  std::vector<std::atomic<int>> seen(kChunks);
  for (auto& s : seen) s.store(-1);
  auto record = [&seen](int64_t begin, int64_t) {
    seen[begin].store(kernels::BatchInvariantGemmEnabled() ? 1 : 0);
  };
  {
    kernels::BatchInvariantGemmScope invariant;
    kernels::ParallelChunks(kChunks, 1, record);
  }
  for (int64_t c = 0; c < kChunks; ++c) EXPECT_EQ(seen[c].load(), 1) << c;
  EXPECT_FALSE(kernels::BatchInvariantGemmEnabled());

  // And the other way round: workers that ran invariant chunks above must
  // not keep the policy for a launcher that has it off.
  kernels::ParallelChunks(kChunks, 1, record);
  for (int64_t c = 0; c < kChunks; ++c) EXPECT_EQ(seen[c].load(), 0) << c;
}

TEST(MatMulKernelTest, GemmNNMatchesNaiveAndIsThreadInvariant) {
  const int64_t m = 37, k = 53, n = 41;  // ragged: exercises all tails
  const std::vector<float> a = RandVec(m * k, 2), b = RandVec(k * n, 3);
  // vs naive: tolerance only — FP contraction (FMA) fuses differently across
  // the two loops even though the accumulation order matches.
  const std::vector<float> want = NaiveMatMul(a, b, m, k, n);
  std::vector<float> serial(static_cast<size_t>(m * n), -1.0f);
  {
    ThreadScope scope(1);
    kernels::GemmNN(m, n, k, a.data(), b.data(), serial.data(), false);
  }
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(serial[i], want[i], 1e-4f) << i;
  }
  // vs itself across thread counts: bitwise.
  ThreadScope scope(4);
  std::vector<float> parallel(static_cast<size_t>(m * n), -1.0f);
  kernels::GemmNN(m, n, k, a.data(), b.data(), parallel.data(), false);
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << i;
  }
}

TEST(MatMulKernelTest, GemmNTMatchesNaive) {
  const int64_t m = 19, n = 23, k = 31;
  const std::vector<float> a = RandVec(m * k, 4), b = RandVec(n * k, 5);
  std::vector<float> want(static_cast<size_t>(m * n), 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t l = 0; l < k; ++l) {
        acc += a[static_cast<size_t>(i * k + l)] * b[static_cast<size_t>(j * k + l)];
      }
      want[static_cast<size_t>(i * n + j)] = acc;
    }
  }
  // vs naive: tolerance — the SIMD NT kernel reduces its vector lanes in a
  // fixed tree order that differs from the serial sweep.
  std::vector<float> serial(static_cast<size_t>(m * n), 0.0f);
  {
    ThreadScope scope(1);
    kernels::GemmNT(m, n, k, a.data(), b.data(), serial.data(), false);
  }
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(serial[i], want[i], 1e-4f) << i;
  }
  // vs itself across thread counts: bitwise.
  ThreadScope scope(4);
  std::vector<float> parallel(static_cast<size_t>(m * n), 0.0f);
  kernels::GemmNT(m, n, k, a.data(), b.data(), parallel.data(), false);
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << i;
  }
}

TEST(MatMulKernelTest, GemmTNMatchesNaiveWithAccumulate) {
  const int64_t m = 21, n = 17, k = 29;  // C(m,n) += A(k,m)^T B(k,n)
  const std::vector<float> a = RandVec(k * m, 6), b = RandVec(k * n, 7);
  std::vector<float> want = RandVec(m * n, 8);
  std::vector<float> c = want;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t l = 0; l < k; ++l) {
      const float av = a[static_cast<size_t>(l * m + i)];
      for (int64_t j = 0; j < n; ++j) {
        want[static_cast<size_t>(i * n + j)] += av * b[static_cast<size_t>(l * n + j)];
      }
    }
  }
  ThreadScope scope(4);
  kernels::GemmTN(m, n, k, a.data(), b.data(), c.data(), true);
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(c[i], want[i], 1e-4f) << i;
  }
}

/// Runs fn at 1 and 4 threads and asserts bitwise-identical output tensors.
template <typename Fn>
void ExpectThreadCountInvariant(Fn fn) {
  Tensor serial, parallel;
  {
    ThreadScope scope(1);
    serial = fn();
  }
  {
    ThreadScope scope(4);
    parallel = fn();
  }
  ASSERT_TRUE(serial.shape() == parallel.shape());
  const float* ps = serial.data();
  const float* pp = parallel.data();
  for (int64_t i = 0; i < serial.NumElements(); ++i) {
    ASSERT_EQ(ps[i], pp[i]) << "element " << i;
  }
}

TEST(OpsEquivalenceTest, ElementwiseBitwiseStableAcrossThreadCounts) {
  Rng rng(9);
  Tensor x = Tensor::Randn(Shape{64, 257}, &rng);
  Tensor y = Tensor::Randn(Shape{64, 257}, &rng);
  Tensor bias = Tensor::Randn(Shape{257}, &rng);
  ExpectThreadCountInvariant([&] { return ops::Add(x, bias); });
  ExpectThreadCountInvariant([&] { return ops::Mul(x, y); });
  ExpectThreadCountInvariant([&] { return ops::Div(x, ops::AddScalar(ops::Square(y), 1.0f)); });
  ExpectThreadCountInvariant([&] { return ops::Gelu(x); });
  ExpectThreadCountInvariant([&] { return ops::Softmax(x); });
  ExpectThreadCountInvariant([&] { return ops::LogSoftmax(x); });
}

TEST(OpsEquivalenceTest, MatMulBitwiseStableAcrossThreadCounts) {
  Rng rng(10);
  Tensor a = Tensor::Randn(Shape{65, 47}, &rng);
  Tensor b = Tensor::Randn(Shape{47, 33}, &rng);
  Tensor ba = Tensor::Randn(Shape{6, 19, 23}, &rng);
  Tensor bb = Tensor::Randn(Shape{6, 23, 9}, &rng);
  Tensor bt = Tensor::Randn(Shape{6, 9, 23}, &rng);
  ExpectThreadCountInvariant([&] { return ops::MatMul(a, b); });
  ExpectThreadCountInvariant([&] { return ops::BatchMatMul(ba, bb); });
  ExpectThreadCountInvariant([&] { return ops::BatchMatMulTransB(ba, bt); });
  ExpectThreadCountInvariant([&] { return ops::Sum(a); });
  ExpectThreadCountInvariant([&] { return ops::SumLastDim(a); });
}

TEST(OpsEquivalenceTest, BackwardBitwiseStableAcrossThreadCounts) {
  auto grads = [](int64_t threads) {
    ThreadScope scope(threads);
    Rng rng(11);
    Tensor a = Tensor::Randn(Shape{31, 17}, &rng, 1.0f, true);
    Tensor b = Tensor::Randn(Shape{17, 13}, &rng, 1.0f, true);
    Tensor bias = Tensor::Randn(Shape{13}, &rng, 1.0f, true);
    Tensor loss = ops::Sum(ops::Square(ops::Add(ops::MatMul(a, b), bias)));
    loss.Backward();
    std::vector<float> out = a.GradTensor().ToVector();
    std::vector<float> gb = b.GradTensor().ToVector();
    std::vector<float> gbias = bias.GradTensor().ToVector();
    out.insert(out.end(), gb.begin(), gb.end());
    out.insert(out.end(), gbias.begin(), gbias.end());
    return out;
  };
  const std::vector<float> serial = grads(1);
  const std::vector<float> parallel = grads(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << i;
  }
}

TEST(OpsEquivalenceTest, BatchMatMulTransBMatchesExplicitTranspose) {
  Rng rng(12);
  Tensor a = Tensor::Randn(Shape{4, 11, 7}, &rng);
  Tensor b = Tensor::Randn(Shape{4, 13, 7}, &rng);
  Tensor fused = ops::BatchMatMulTransB(a, b);
  Tensor reference = ops::BatchMatMul(a, ops::TransposeLast2(b));
  ASSERT_TRUE(fused.shape() == reference.shape());
  for (int64_t i = 0; i < fused.NumElements(); ++i) {
    ASSERT_NEAR(fused.data()[i], reference.data()[i], 1e-5f) << i;
  }
}

/// Conv2d forward + backward at `threads` threads; returns {gx, gw, gb}
/// concatenated. Batch of 5 with the scratch chunked per sample exercises
/// the parallel batch loop and the fixed-order grad reduction.
std::vector<float> ConvGrads(int64_t threads) {
  ThreadScope scope(threads);
  Rng rng(21);
  Tensor x = Tensor::Randn(Shape{5, 3, 7, 7}, &rng, 0.5f, true);
  Tensor w = Tensor::Randn(Shape{4, 3, 3, 3}, &rng, 0.5f, true);
  Tensor bias = Tensor::Randn(Shape{4}, &rng, 0.5f, true);
  Tensor loss = ops::Sum(ops::Square(ops::Conv2d(x, w, bias, 1, 1)));
  loss.Backward();
  std::vector<float> out = x.GradTensor().ToVector();
  std::vector<float> gw = w.GradTensor().ToVector();
  std::vector<float> gb = bias.GradTensor().ToVector();
  out.insert(out.end(), gw.begin(), gw.end());
  out.insert(out.end(), gb.begin(), gb.end());
  return out;
}

TEST(ConvBackwardTest, BitwiseStableAcrossThreadCounts) {
  const std::vector<float> serial = ConvGrads(1);
  for (int64_t threads : {2, 8}) {
    const std::vector<float> parallel = ConvGrads(threads);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i], parallel[i]) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ConvBackwardTest, MatchesSerialBatchLoopReference) {
  // Direct-convolution reference for the gradients the im2col + per-chunk
  // scratch path computes: the pre-parallelization serial batch loop in
  // naive loop form. Tolerance only — the scratch path sums each sample's
  // contribution before folding it into the running grad, which rounds
  // differently from one long accumulation chain.
  const int64_t b = 3, c = 2, h = 5, w = 5;
  const int64_t o = 4, kh = 3, kw = 3, stride = 1, pad = 1;
  const int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const int64_t ow = (w + 2 * pad - kw) / stride + 1;
  Rng rng(22);
  Tensor x = Tensor::Randn(Shape{b, c, h, w}, &rng, 0.5f, true);
  Tensor wt = Tensor::Randn(Shape{o, c, kh, kw}, &rng, 0.5f, true);
  Tensor bias = Tensor::Randn(Shape{o}, &rng, 0.5f, true);
  Tensor out = ops::Conv2d(x, wt, bias, stride, pad);
  Tensor loss = ops::Sum(out);  // dL/dout = 1 everywhere: easy reference
  loss.Backward();

  // gb[oi] = b * oh * ow ones summed.
  for (int64_t oi = 0; oi < o; ++oi) {
    EXPECT_NEAR(bias.GradTensor().data()[oi],
                static_cast<float>(b * oh * ow), 1e-3f);
  }
  // gw[oi][ci][ki][kj] = sum over samples and output positions of x at the
  // corresponding input position (zero outside the padded border); with
  // dL/dout = 1 everywhere it is identical across output channels.
  const float* px = x.data();
  for (int64_t oi = 0; oi < o; ++oi) {
    for (int64_t ci = 0; ci < c; ++ci) {
      for (int64_t ki = 0; ki < kh; ++ki) {
        for (int64_t kj = 0; kj < kw; ++kj) {
          float acc = 0.0f;
          for (int64_t bi = 0; bi < b; ++bi) {
            for (int64_t i = 0; i < oh; ++i) {
              for (int64_t j = 0; j < ow; ++j) {
                const int64_t ii = i * stride + ki - pad;
                const int64_t jj = j * stride + kj - pad;
                if (ii < 0 || ii >= h || jj < 0 || jj >= w) continue;
                acc += px[((bi * c + ci) * h + ii) * w + jj];
              }
            }
          }
          EXPECT_NEAR(
              wt.GradTensor()
                  .data()[((oi * c + ci) * kh + ki) * kw + kj],
              acc, 1e-3f)
              << oi << "," << ci << "," << ki << "," << kj;
        }
      }
    }
  }
  // gx[ci][ii][jj] = sum over output channels and kernel taps that touch it.
  const float* pw = wt.data();
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ci = 0; ci < c; ++ci) {
      for (int64_t ii = 0; ii < h; ++ii) {
        for (int64_t jj = 0; jj < w; ++jj) {
          float acc = 0.0f;
          for (int64_t oi = 0; oi < o; ++oi) {
            for (int64_t ki = 0; ki < kh; ++ki) {
              for (int64_t kj = 0; kj < kw; ++kj) {
                const int64_t i = ii + pad - ki;
                const int64_t j = jj + pad - kj;
                if (i % stride != 0 || j % stride != 0) continue;
                if (i / stride < 0 || i / stride >= oh) continue;
                if (j / stride < 0 || j / stride >= ow) continue;
                acc += pw[((oi * c + ci) * kh + ki) * kw + kj];
              }
            }
          }
          EXPECT_NEAR(
              x.GradTensor().data()[((bi * c + ci) * h + ii) * w + jj], acc,
              1e-3f)
              << bi << "," << ci << "," << ii << "," << jj;
        }
      }
    }
  }
}

TEST(KernelGradCheckTest, MatMulBackwardAtFourThreads) {
  ThreadScope scope(4);
  Rng rng(13);
  GradCheckResult r = GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Sum(ops::Square(ops::MatMul(in[0], in[1])));
      },
      {Tensor::Randn(Shape{5, 6}, &rng, 1.0f, true),
       Tensor::Randn(Shape{6, 4}, &rng, 1.0f, true)});
  EXPECT_TRUE(r.passed) << r.detail;
}

TEST(KernelGradCheckTest, BatchMatMulTransBBackward) {
  ThreadScope scope(4);
  Rng rng(14);
  GradCheckResult r = GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Sum(ops::Square(ops::BatchMatMulTransB(in[0], in[1])));
      },
      {Tensor::Randn(Shape{2, 3, 4}, &rng, 1.0f, true),
       Tensor::Randn(Shape{2, 5, 4}, &rng, 1.0f, true)});
  EXPECT_TRUE(r.passed) << r.detail;
}

TEST(KernelGradCheckTest, Conv2dBackwardAtFourThreads) {
  ThreadScope scope(4);
  Rng rng(15);
  GradCheckResult r = GradCheck(
      [](const std::vector<Tensor>& in) {
        return ops::Mean(ops::Square(ops::Conv2d(in[0], in[1], in[2], 1, 1)));
      },
      {Tensor::Randn(Shape{2, 2, 5, 5}, &rng, 0.5f, true),
       Tensor::Randn(Shape{3, 2, 3, 3}, &rng, 0.5f, true),
       Tensor::Randn(Shape{3}, &rng, 0.5f, true)},
      /*epsilon=*/2e-2);
  EXPECT_TRUE(r.passed) << r.detail;
}

}  // namespace
}  // namespace cdcl
