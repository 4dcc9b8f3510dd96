#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "cl/memory.h"
#include "cl/metrics.h"
#include "gtest/gtest.h"
#include "tensor/kernels/matmul_quant.h"

namespace cdcl {
namespace cl {
namespace {

AccuracyMatrix MakeMatrix(const std::vector<std::vector<double>>& rows) {
  AccuracyMatrix m(static_cast<int64_t>(rows.size()));
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j <= i; ++j) {
      m.Set(static_cast<int64_t>(i), static_cast<int64_t>(j), rows[i][j]);
    }
  }
  return m;
}

TEST(AccuracyMatrixTest, AverageAccuracyIsLastRowMean) {
  AccuracyMatrix m = MakeMatrix({{0.9}, {0.5, 0.8}, {0.3, 0.6, 0.9}});
  EXPECT_NEAR(m.AverageAccuracy(), (0.3 + 0.6 + 0.9) / 3, 1e-9);
}

TEST(AccuracyMatrixTest, ForgettingUsesBestPastMinusFinal) {
  // Task 0 peaked at 0.9 (row 0), ends at 0.3 -> forgets 0.6.
  // Task 1 peaked at 0.8 (row 1), ends at 0.6 -> forgets 0.2.
  AccuracyMatrix m = MakeMatrix({{0.9}, {0.5, 0.8}, {0.3, 0.6, 0.9}});
  EXPECT_NEAR(m.Forgetting(), (0.6 + 0.2) / 2, 1e-9);
}

TEST(AccuracyMatrixTest, MonotoneImprovementGivesNegativeForgetting) {
  // Backward transfer: accuracy on old tasks keeps rising, so forgetting is
  // negative (Chaudhry et al.'s definition allows this).
  AccuracyMatrix m = MakeMatrix({{0.5}, {0.6, 0.5}, {0.7, 0.6, 0.5}});
  EXPECT_NEAR(m.Forgetting(), -0.1, 1e-9);
}

TEST(AccuracyMatrixTest, SingleTaskForgettingIsZero) {
  AccuracyMatrix m = MakeMatrix({{0.5}});
  EXPECT_EQ(m.Forgetting(), 0.0);
}

TEST(AccuracyMatrixTest, ColumnStats) {
  AccuracyMatrix m = MakeMatrix({{0.9}, {0.7, 0.8}, {0.5, 0.6, 0.9}});
  auto stats = m.Column(0);
  EXPECT_NEAR(stats.mean, (0.9 + 0.7 + 0.5) / 3, 1e-9);
  EXPECT_NEAR(stats.first, 0.9, 1e-9);
  EXPECT_NEAR(stats.final, 0.5, 1e-9);
  EXPECT_GT(stats.stddev, 0.0);
}

TEST(AccuracyMatrixTest, ToStringRendersTriangle) {
  AccuracyMatrix m = MakeMatrix({{0.5}, {0.25, 1.0}});
  std::string s = m.ToString();
  EXPECT_NE(s.find("50.00"), std::string::npos);
  EXPECT_NE(s.find("25.00"), std::string::npos);
  EXPECT_NE(s.find("100.00"), std::string::npos);
}

TEST(SummarizeTest, MeanAndStddev) {
  MetricSummary s = Summarize({1.0, 2.0, 3.0});
  EXPECT_NEAR(s.mean, 2.0, 1e-9);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0 / 3.0), 1e-9);
  EXPECT_EQ(s.count, 3);
}

TEST(SummarizeTest, EmptyIsZero) {
  MetricSummary s = Summarize({});
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.mean, 0.0);
}

MemoryRecord MakeRecord(float confidence, int64_t label = 0) {
  MemoryRecord r;
  r.source_image = Tensor::Full(Shape{1, 2, 2}, confidence);
  r.target_image = Tensor::Full(Shape{1, 2, 2}, confidence);
  r.label = label;
  r.task_label = label;
  r.confidence = confidence;
  return r;
}

std::vector<MemoryRecord> MakeRecords(int n, float base_confidence) {
  std::vector<MemoryRecord> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(MakeRecord(base_confidence + 0.001f * static_cast<float>(i)));
  }
  return out;
}

TEST(RehearsalMemoryTest, RespectsCapacity) {
  RehearsalMemory mem(10);
  Rng rng(1);
  mem.AddTask(0, MakeRecords(30, 0.5f), &rng);
  EXPECT_EQ(mem.size(), 10);
  EXPECT_EQ(mem.QuotaPerTask(), 10);
}

TEST(RehearsalMemoryTest, QuotaShrinksWithTasks) {
  RehearsalMemory mem(10);
  Rng rng(2);
  mem.AddTask(0, MakeRecords(30, 0.5f), &rng);
  mem.AddTask(1, MakeRecords(30, 0.9f), &rng);
  EXPECT_EQ(mem.QuotaPerTask(), 5);
  EXPECT_LE(mem.size(), 10);
  // Both tasks keep exactly quota records.
  int64_t task0 = 0, task1 = 0;
  for (const auto& r : mem.records()) {
    task0 += r.task_id == 0;
    task1 += r.task_id == 1;
  }
  EXPECT_EQ(task0, 5);
  EXPECT_EQ(task1, 5);
}

TEST(RehearsalMemoryTest, ConfidencePolicyKeepsTopRecords) {
  RehearsalMemory mem(2, MemoryPolicy::kConfidenceTopK);
  Rng rng(3);
  std::vector<MemoryRecord> records;
  records.push_back(MakeRecord(0.1f));
  records.push_back(MakeRecord(0.9f));
  records.push_back(MakeRecord(0.5f));
  mem.AddTask(0, std::move(records), &rng);
  ASSERT_EQ(mem.size(), 2);
  float min_conf = 1.0f;
  for (const auto& r : mem.records()) min_conf = std::min(min_conf, r.confidence);
  EXPECT_GE(min_conf, 0.5f);
}

TEST(RehearsalMemoryTest, SampleFromTaskFiltersByTask) {
  RehearsalMemory mem(20);
  Rng rng(4);
  mem.AddTask(0, MakeRecords(5, 0.5f), &rng);
  mem.AddTask(1, MakeRecords(5, 0.6f), &rng);
  auto sampled = mem.SampleFromTask(1, 8, &rng);
  ASSERT_EQ(sampled.size(), 8u);
  for (const auto* r : sampled) EXPECT_EQ(r->task_id, 1);
  EXPECT_TRUE(mem.SampleFromTask(7, 3, &rng).empty());
}

TEST(RehearsalMemoryTest, StoredTaskIdsSorted) {
  RehearsalMemory mem(30);
  Rng rng(5);
  mem.AddTask(2, MakeRecords(3, 0.5f), &rng);
  mem.AddTask(0, MakeRecords(3, 0.5f), &rng);
  EXPECT_EQ(mem.StoredTaskIds(), (std::vector<int64_t>{0, 2}));
}

TEST(RehearsalMemoryTest, SampleWithReplacementWhenSmall) {
  RehearsalMemory mem(10);
  Rng rng(6);
  mem.AddTask(0, MakeRecords(2, 0.5f), &rng);
  auto sampled = mem.Sample(6, &rng);
  EXPECT_EQ(sampled.size(), 6u);
}

// Property sweep: for any capacity/tasks combination the memory never
// exceeds capacity and per-task counts never exceed quota.
class MemoryQuotaSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MemoryQuotaSweep, InvariantsHold) {
  const int capacity = std::get<0>(GetParam());
  const int tasks = std::get<1>(GetParam());
  RehearsalMemory mem(capacity);
  Rng rng(7);
  for (int t = 0; t < tasks; ++t) {
    mem.AddTask(t, MakeRecords(capacity, 0.5f), &rng);
    EXPECT_LE(mem.size(), capacity);
    const int64_t quota = mem.QuotaPerTask();
    std::vector<int64_t> counts(static_cast<size_t>(t + 1), 0);
    for (const auto& r : mem.records()) ++counts[static_cast<size_t>(r.task_id)];
    for (int64_t c : counts) EXPECT_LE(c, quota);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CapacityTasks, MemoryQuotaSweep,
    ::testing::Combine(::testing::Values(5, 16, 100),
                       ::testing::Values(1, 3, 7)));

using kernels::GemmPrecision;

/// Sets the storage precision for one test and restores fp32 on exit.
class PrecisionScope {
 public:
  explicit PrecisionScope(GemmPrecision p) { kernels::SetGemmPrecision(p); }
  ~PrecisionScope() { kernels::SetGemmPrecision(GemmPrecision::kFp32); }
};

TEST(CompactFloatsTest, Fp32ModeRoundTripsExactly) {
  PrecisionScope scope(GemmPrecision::kFp32);
  const std::vector<float> x = {0.0f, -1.5f, 3.25e-12f, 7.75e20f, -0.125f};
  CompactFloats c = CompactFloats::Encode(x);
  ASSERT_EQ(c.size(), x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(c[i], x[i]) << i;  // bitwise: fp32 mode stores raw floats
  }
  EXPECT_EQ(c.Decode(), x);
  EXPECT_EQ(c.ByteSize(), x.size() * sizeof(float));
}

TEST(CompactFloatsTest, QuantizedModesRoundTripWithinEnvelopeAndShrink) {
  Rng rng(33);
  std::vector<float> x(256);
  for (float& v : x) v = static_cast<float>(rng.Gaussian(0.0, 2.0));
  float amax = 0.0f;
  for (float v : x) amax = std::max(amax, std::fabs(v));
  {
    PrecisionScope scope(GemmPrecision::kBf16);
    CompactFloats c = CompactFloats::Encode(x);
    ASSERT_EQ(c.size(), x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      ASSERT_NEAR(c[i], x[i], std::fabs(x[i]) / 128.0f + 1e-30f) << i;
    }
    EXPECT_EQ(c.ByteSize(), x.size() * sizeof(uint16_t));
  }
  {
    PrecisionScope scope(GemmPrecision::kInt8);
    CompactFloats c = CompactFloats::Encode(x);
    ASSERT_EQ(c.size(), x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      ASSERT_NEAR(c[i], x[i], amax / 254.0f + 1e-30f) << i;
    }
    EXPECT_EQ(c.ByteSize(), x.size() * sizeof(int8_t) + sizeof(float));
  }
}

TEST(CompactFloatsTest, Int8DenormalVectorFlushesToZero) {
  PrecisionScope scope(GemmPrecision::kInt8);
  const std::vector<float> x(16, 1e-40f);  // all-denormal
  CompactFloats c = CompactFloats::Encode(x);
  for (size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(c[i], 0.0f) << i;
  }
  CompactFloats empty = CompactFloats::Encode({});
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.ByteSize(), sizeof(float));  // just the scale slot
}

}  // namespace
}  // namespace cl
}  // namespace cdcl
