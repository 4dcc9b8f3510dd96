// Accuracy + determinism harness for the vectorized transcendental tier
// (kernels/vec_math.h). Three contracts under test:
//
//  1. Accuracy: ExpPs / TanhPs stay within 2 ULP of the correctly rounded
//     result (double-precision libm rounded to float) over dense sweeps of
//     their interesting ranges and at adversarial inputs (+-0, denormals,
//     +-inf, NaN, the under/overflow boundaries). GeluPsScalar is the literal
//     composition of the documented primitives, so its bound is the tanh
//     error amplified by the (1 + tanh) cancellation in the negative tail:
//     |err| <= 2 ulp(ref) + |0.5 x| * 2^-22 (see docs/kernels.md).
//  2. Tier invariance: the scalar chain, the AVX2 8-lane kernel and the
//     AVX-512 16-lane kernel (selected through the ISA cap) produce bitwise
//     identical buffers for every tail length 1..2*lanes — the dispatch seam
//     must be invisible.
//  3. Thread invariance: the parallel maps and the shared softmax and
//     LayerNorm row arithmetic are bitwise identical at 1/2/8 threads.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <cstdio>

#include "gtest/gtest.h"
#include "tensor/kernels/fused_eval.h"
#include "tensor/kernels/kernel_context.h"
#include "tensor/kernels/layernorm.h"
#include "tensor/kernels/matmul_internal.h"
#include "tensor/kernels/matmul_kernel.h"
#include "tensor/kernels/vec_math.h"

namespace cdcl {
namespace kernels {
namespace {

class VecMathSettingsScope {
 public:
  ~VecMathSettingsScope() {
    SetNumThreads(0);
    SetIsaCap(IsaCap::kAvx512);
  }
};

/// Distance in units-in-the-last-place via the ordered-integer mapping.
/// NaN-vs-NaN counts as equal; any other NaN/inf mismatch is "infinite".
int64_t UlpDistance(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return 0;
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<int64_t>::max();
  }
  if (a == b) return 0;  // also covers +0 vs -0 and equal infinities
  if (std::isinf(a) || std::isinf(b)) {
    return std::numeric_limits<int64_t>::max();
  }
  auto ordered = [](float f) {
    int32_t i;
    std::memcpy(&i, &f, sizeof(i));
    return i < 0 ? int64_t{0x80000000LL} - i : int64_t{i} + 0x80000000LL;
  };
  const int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

float RoundedRef(double value) { return static_cast<float>(value); }

std::vector<float> AdversarialInputs() {
  return {0.0f,
          -0.0f,
          1e-40f,   // denormal
          -1e-40f,
          std::numeric_limits<float>::denorm_min(),
          -std::numeric_limits<float>::denorm_min(),
          std::numeric_limits<float>::infinity(),
          -std::numeric_limits<float>::infinity(),
          std::numeric_limits<float>::quiet_NaN(),
          88.72f,   // just below expf overflow
          88.73f,   // just above
          -87.3f,   // smallest-normal neighborhood
          -103.9f,  // deep denormal output
          -104.1f,  // underflow to zero
          0.625f,   // tanh branch threshold
          -0.625f,
          9.01f,    // tanh saturation
          -9.01f};
}

// --- 1. Accuracy -----------------------------------------------------------

TEST(VecMathTest, ExpWithinTwoUlpOfCorrectlyRounded) {
  VecMathSettingsScope restore;
  int64_t max_ulp = 0;
  for (double x = -104.5; x <= 89.5; x += 0.00037) {
    const float xf = static_cast<float>(x);
    const float mine = ExpPsScalar(xf);
    const float ref = RoundedRef(std::exp(static_cast<double>(xf)));
    const int64_t d = UlpDistance(mine, ref);
    ASSERT_LE(d, 2) << "x=" << xf << " mine=" << mine << " ref=" << ref;
    max_ulp = std::max(max_ulp, d);
  }
  EXPECT_LE(max_ulp, 2);
  for (float x : AdversarialInputs()) {
    const float mine = ExpPsScalar(x);
    const float ref = RoundedRef(std::exp(static_cast<double>(x)));
    EXPECT_LE(UlpDistance(mine, ref), 2) << "x=" << x;
  }
}

TEST(VecMathTest, TanhWithinTwoUlpOfCorrectlyRounded) {
  VecMathSettingsScope restore;
  for (double x = -12.0; x <= 12.0; x += 0.000113) {
    const float xf = static_cast<float>(x);
    const float mine = TanhPsScalar(xf);
    const float ref = RoundedRef(std::tanh(static_cast<double>(xf)));
    ASSERT_LE(UlpDistance(mine, ref), 2)
        << "x=" << xf << " mine=" << mine << " ref=" << ref;
  }
  for (float x : AdversarialInputs()) {
    const float mine = TanhPsScalar(x);
    const float ref = RoundedRef(std::tanh(static_cast<double>(x)));
    EXPECT_LE(UlpDistance(mine, ref), 2) << "x=" << x;
  }
  // Sign symmetry including signed zero.
  EXPECT_EQ(std::signbit(TanhPsScalar(-0.0f)), true);
  EXPECT_EQ(std::signbit(TanhPsScalar(0.0f)), false);
}

TEST(VecMathTest, GeluWithinCancellationAmplifiedBound) {
  VecMathSettingsScope restore;
  for (double x = -12.0; x <= 12.0; x += 0.000113) {
    const float xf = static_cast<float>(x);
    const float mine = GeluPsScalar(xf);
    const double xd = static_cast<double>(xf);
    const double kc = 0.7978845608f;
    const double kb = 0.044715f;
    const double refd =
        0.5 * xd * (1.0 + std::tanh(kc * (xd + kb * xd * xd * xd)));
    const float ref = RoundedRef(refd);
    // 2 ulp of the result plus the tanh tier error amplified through the
    // (1 + tanh) cancellation: |0.5 x| * 2^-22.
    const double bound =
        2.0 * std::ldexp(1.0, std::ilogb(std::max(std::fabs(refd), 1e-30)) -
                                  23) +
        std::fabs(0.5 * xd) * std::ldexp(1.0, -22);
    ASSERT_LE(std::fabs(static_cast<double>(mine) - refd), bound)
        << "x=" << xf << " mine=" << mine << " ref=" << ref;
  }
}

// --- 2. Tier invariance ----------------------------------------------------

void ExpectTierBitwise(void (*kernel)(int64_t, const float*, float*),
                       float (*scalar)(float), const std::string& name) {
  // A cap above what the host has resolves to its widest tier, so the sweep
  // always covers everything the host can run. Make a coverage gap visible:
  // a green run then says nothing about the missing SIMD chains' parity.
  if (!CpuHasAvx2Fma()) {
    std::printf("[  NOTE    ] %s: no AVX2/FMA — every cap resolves to the "
                "scalar chain, SIMD kernels unexercised\n",
                name.c_str());
  } else if (!internal::Avx512Available()) {
    std::printf("[  NOTE    ] %s: no AVX-512F — the kAvx512 cap resolves to "
                "AVX2; widest tier under test is AVX2\n",
                name.c_str());
  }
  const IsaCap tiers[] = {IsaCap::kScalar, IsaCap::kAvx2, IsaCap::kAvx512};

  // Dense values spanning all branches plus the adversarial set, swept at
  // every tail length 1..32 (2x the widest lane count) and offset.
  std::vector<float> pool;
  for (double x = -20.0; x <= 20.0; x += 0.0417) {
    pool.push_back(static_cast<float>(x));
  }
  for (float x : AdversarialInputs()) pool.push_back(x);

  for (int64_t len = 1; len <= 32; ++len) {
    for (int64_t offset = 0; offset + len <= static_cast<int64_t>(pool.size());
         offset += 29) {
      const float* x = pool.data() + offset;
      std::vector<float> want(static_cast<size_t>(len));
      for (int64_t i = 0; i < len; ++i) want[static_cast<size_t>(i)] =
          scalar(x[i]);
      for (IsaCap tier : tiers) {
        SetIsaCap(tier);
        std::vector<float> got(static_cast<size_t>(len), 0.0f);
        kernel(len, x, got.data());
        for (int64_t i = 0; i < len; ++i) {
          ASSERT_EQ(std::memcmp(&want[static_cast<size_t>(i)],
                                &got[static_cast<size_t>(i)], sizeof(float)),
                    0)
              << name << " tier=" << static_cast<int>(tier) << " len=" << len
              << " offset=" << offset << " i=" << i << ": "
              << want[static_cast<size_t>(i)] << " vs "
              << got[static_cast<size_t>(i)];
        }
      }
      SetIsaCap(IsaCap::kAvx512);
    }
  }
}

TEST(VecMathTest, ExpBitwiseAcrossIsaTiersAndTails) {
  VecMathSettingsScope restore;
  ExpectTierBitwise(&ExpPs, &ExpPsScalar, "exp");
}

TEST(VecMathTest, TanhBitwiseAcrossIsaTiersAndTails) {
  VecMathSettingsScope restore;
  ExpectTierBitwise(&TanhPs, &TanhPsScalar, "tanh");
}

TEST(VecMathTest, GeluBitwiseAcrossIsaTiersAndTails) {
  VecMathSettingsScope restore;
  ExpectTierBitwise(&GeluPs, &GeluPsScalar, "gelu");
  ExpectTierBitwise(&GeluGradPs, &GeluGradPsScalar, "gelu_grad");
}

// --- 3. Thread invariance -------------------------------------------------

TEST(VecMathTest, MapsBitwiseAcrossThreadCounts) {
  VecMathSettingsScope restore;
  const int64_t rows = 64, width = 37;
  const int64_t n = rows * width;
  std::vector<float> x(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] = -6.0f + 12.0f * static_cast<float>(i) /
                                            static_cast<float>(n);
  }
  std::vector<std::vector<float>> gelu_runs, softmax_runs, ln_runs;
  for (int64_t threads : {int64_t{1}, int64_t{2}, int64_t{8}}) {
    SetNumThreads(threads);
    std::vector<float> g(x);
    GeluMapVec(n, x.data(), g.data());
    gelu_runs.push_back(std::move(g));
    std::vector<float> s(x);
    SoftmaxRows(rows, width, s.data());
    softmax_runs.push_back(std::move(s));
    std::vector<float> out(static_cast<size_t>(n)),
        inv(static_cast<size_t>(rows)), hat(static_cast<size_t>(n)),
        gamma(static_cast<size_t>(width), 1.25f),
        beta(static_cast<size_t>(width), -0.5f);
    LayerNormForwardRows(rows, width, x.data(), gamma.data(), beta.data(),
                         1e-5f, out.data(), inv.data(), hat.data());
    ln_runs.push_back(std::move(out));
  }
  for (size_t r = 1; r < gelu_runs.size(); ++r) {
    ASSERT_EQ(std::memcmp(gelu_runs[0].data(), gelu_runs[r].data(),
                          gelu_runs[0].size() * sizeof(float)),
              0)
        << "gelu run=" << r;
    ASSERT_EQ(std::memcmp(softmax_runs[0].data(), softmax_runs[r].data(),
                          softmax_runs[0].size() * sizeof(float)),
              0)
        << "softmax run=" << r;
    ASSERT_EQ(std::memcmp(ln_runs[0].data(), ln_runs[r].data(),
                          ln_runs[0].size() * sizeof(float)),
              0)
        << "layernorm run=" << r;
  }
}

}  // namespace
}  // namespace kernels
}  // namespace cdcl
