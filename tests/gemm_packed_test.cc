// Bitwise harness for the GEMM one-chain contract (matmul_kernel.h): every
// tier the ISA cap can select (scalar, AVX2, AVX-512) x every variant
// (NN/NT/TN) x accumulate on/off must equal, bit for bit, a reference that
// computes each output element as one ascending-k std::fma chain started
// from C (accumulate) or zero — at 1, 2 and 8 threads, over adversarial
// shapes (degenerate rows/columns, prime dims, K=0, sizes that miss every
// register tile and panel width, the packed-dispatch boundary, and the
// attention shapes where the tiers used to disagree). Kernel choice is then
// a speed decision only. A cap above what the host supports resolves to its
// widest tier, so the sweep always covers everything the host can run.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/kernels/kernel_context.h"
#include "tensor/kernels/matmul_kernel.h"
#include "util/rng.h"

namespace cdcl {
namespace {

enum class Op { kNN, kNT, kTN };

const char* OpName(Op op) {
  switch (op) {
    case Op::kNN: return "NN";
    case Op::kNT: return "NT";
    case Op::kTN: return "TN";
  }
  return "?";
}

const kernels::IsaCap kCaps[] = {kernels::IsaCap::kScalar,
                                 kernels::IsaCap::kAvx2,
                                 kernels::IsaCap::kAvx512};

/// Restores thread count and ISA cap when a scope ends.
class DispatchScope {
 public:
  DispatchScope(int64_t threads, kernels::IsaCap cap) {
    kernels::SetNumThreads(threads);
    kernels::SetIsaCap(cap);
  }
  ~DispatchScope() {
    kernels::SetNumThreads(0);
    kernels::SetIsaCap(kernels::IsaCap::kAvx512);
  }
};

std::vector<float> RandVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Gaussian(0.0, 1.0));
  return v;
}

struct GemmShape {
  int64_t m, k, n;
};

// Degenerate edges (1xN, Nx1, scalar, K=0), primes that miss the 8/6/4-row
// tiles and the 16/32-wide panels, exact tile multiples, the packed rule's
// boundary (m >= 8, n >= 16, k >= 16) from both sides, and the per-sample
// attention / projection shapes where the tiers once disagreed.
const GemmShape kShapes[] = {
    {1, 17, 65},    // single output row
    {65, 17, 1},    // single output column
    {1, 1, 1},      // scalar
    {2, 3, 5},      // tiny, all tails
    {5, 0, 7},      // K=0: C must be zeroed (or left alone when accumulating)
    {37, 53, 41},   // prime everything
    {48, 64, 96},   // exact multiples of every tile/panel in play
    {100, 100, 100},// non-multiple of 6/8/16/32
    {67, 70, 77},   // ragged rows + panel tails, past the k-block floor
    {8, 16, 16},    // smallest packed shape
    {7, 16, 16},    // one row short of packed
    {8, 15, 16},    // one k short of packed
    {8, 16, 15},    // one column short of packed
    {9, 300, 40},   // k spans two kKc blocks
    {256, 24, 24},  // flattened d=24 projection
    {16, 16, 24},   // per-sample attention products
    {16, 24, 16},
    {33, 17, 29},
};

int64_t ASize(Op op, const GemmShape& s) {
  return op == Op::kTN ? s.k * s.m : s.m * s.k;
}
int64_t BSize(Op op, const GemmShape& s) {
  return op == Op::kNT ? s.n * s.k : s.k * s.n;
}

/// The contract itself: one ascending-k std::fma chain per output element.
std::vector<float> RefGemm(Op op, const GemmShape& s,
                           const std::vector<float>& a,
                           const std::vector<float>& b,
                           const std::vector<float>& c0, bool accumulate) {
  std::vector<float> c = c0;
  for (int64_t i = 0; i < s.m; ++i) {
    for (int64_t j = 0; j < s.n; ++j) {
      float acc = accumulate ? c[static_cast<size_t>(i * s.n + j)] : 0.0f;
      for (int64_t l = 0; l < s.k; ++l) {
        float av = 0.0f, bv = 0.0f;
        switch (op) {
          case Op::kNN:
            av = a[static_cast<size_t>(i * s.k + l)];
            bv = b[static_cast<size_t>(l * s.n + j)];
            break;
          case Op::kNT:
            av = a[static_cast<size_t>(i * s.k + l)];
            bv = b[static_cast<size_t>(j * s.k + l)];
            break;
          case Op::kTN:
            av = a[static_cast<size_t>(l * s.m + i)];
            bv = b[static_cast<size_t>(l * s.n + j)];
            break;
        }
        acc = std::fma(av, bv, acc);
      }
      c[static_cast<size_t>(i * s.n + j)] = acc;
    }
  }
  return c;
}

std::vector<float> RunGemm(Op op, const GemmShape& s, kernels::IsaCap cap,
                           int64_t threads, const std::vector<float>& a,
                           const std::vector<float>& b,
                           const std::vector<float>& c0, bool accumulate) {
  DispatchScope scope(threads, cap);
  std::vector<float> c = c0;
  switch (op) {
    case Op::kNN:
      kernels::GemmNN(s.m, s.n, s.k, a.data(), b.data(), c.data(), accumulate);
      break;
    case Op::kNT:
      kernels::GemmNT(s.m, s.n, s.k, a.data(), b.data(), c.data(), accumulate);
      break;
    case Op::kTN:
      kernels::GemmTN(s.m, s.n, s.k, a.data(), b.data(), c.data(), accumulate);
      break;
  }
  return c;
}

void ExpectBitwiseEqual(const std::vector<float>& want,
                        const std::vector<float>& got,
                        const std::string& context) {
  ASSERT_EQ(want.size(), got.size()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::memcmp(&want[i], &got[i], sizeof(float)), 0)
        << context << " i=" << i << ": " << want[i] << " vs " << got[i];
  }
}

class GemmEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(GemmEquivalenceTest, EveryTierEqualsTheFmaChainAtEveryThreadCount) {
  const Op op = static_cast<Op>(std::get<0>(GetParam()));
  const bool accumulate = std::get<1>(GetParam());
  uint64_t seed = 1;
  for (const GemmShape& s : kShapes) {
    const std::string shape = std::string(OpName(op)) + " m=" +
                              std::to_string(s.m) + " k=" +
                              std::to_string(s.k) + " n=" +
                              std::to_string(s.n) +
                              (accumulate ? " accumulate" : "");
    const std::vector<float> a = RandVec(ASize(op, s), seed++);
    const std::vector<float> b = RandVec(BSize(op, s), seed++);
    // Poison the output when not accumulating: kernels must overwrite it.
    std::vector<float> c0 = RandVec(s.m * s.n, seed++);
    if (!accumulate) {
      for (float& x : c0) x = -1000.0f;
    }
    const std::vector<float> want = RefGemm(op, s, a, b, c0, accumulate);
    for (kernels::IsaCap cap : kCaps) {
      for (int64_t threads : {1, 2, 8}) {
        ExpectBitwiseEqual(
            want, RunGemm(op, s, cap, threads, a, b, c0, accumulate),
            shape + " cap=" + std::to_string(static_cast<int>(cap)) +
                " threads=" + std::to_string(threads));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, GemmEquivalenceTest,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return std::string(OpName(static_cast<Op>(std::get<0>(info.param)))) +
             (std::get<1>(info.param) ? "Accumulate" : "Overwrite");
    });

// The cap is a plain process-wide setting, and on a shape the dispatcher
// packs it only changes which tier runs: scalar, AVX2 and AVX-512 (each
// degrading to the widest the host has) give the same bits.
TEST(GemmDispatchTest, IsaCapRoundTripsAndOnlyChangesSpeed) {
  const GemmShape s{64, 80, 64};
  const std::vector<float> a = RandVec(s.m * s.k, 91);
  const std::vector<float> b = RandVec(s.k * s.n, 92);
  const std::vector<float> c0(static_cast<size_t>(s.m * s.n), 0.0f);
  const std::vector<float> scalar =
      RunGemm(Op::kNN, s, kernels::IsaCap::kScalar, 1, a, b, c0, false);
  for (kernels::IsaCap cap : kCaps) {
    {
      DispatchScope scope(1, cap);
      EXPECT_EQ(kernels::GetIsaCap(), cap);
    }
    EXPECT_EQ(kernels::GetIsaCap(), kernels::IsaCap::kAvx512);
    ExpectBitwiseEqual(scalar, RunGemm(Op::kNN, s, cap, 1, a, b, c0, false),
                       "cap=" + std::to_string(static_cast<int>(cap)));
  }
}

}  // namespace
}  // namespace cdcl
