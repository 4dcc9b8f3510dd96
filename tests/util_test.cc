#include <atomic>
#include <cmath>
#include <set>

#include "gtest/gtest.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace cdcl {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad shape");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad shape");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Status FailingHelper() { return Status::Internal("boom"); }

Status PropagatingHelper() {
  CDCL_RETURN_NOT_OK(FailingHelper());
  return Status::Ok();
}

TEST(ResultTest, ReturnNotOkPropagates) {
  EXPECT_EQ(PropagatingHelper().code(), StatusCode::kInternal);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextBelow(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit over 1000 draws
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, SampleIndexFollowsWeights) {
  Rng rng(13);
  std::vector<double> weights = {0.0, 3.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) ++counts[rng.SampleIndex(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_NEAR(static_cast<double>(counts[1]) / 4000, 0.75, 0.05);
}

TEST(RngTest, ShuffleKeepsMultiset) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkDecorrelates) {
  Rng a(21);
  Rng forked = a.Fork();
  EXPECT_NE(a.NextU64(), forked.NextU64());
}

TEST(StringUtilTest, SplitTrimsAndDropsEmpty) {
  auto parts = SplitString(" a, b ,, c ", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(JoinStrings({}, "-"), "");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
}

TEST(StringUtilTest, Padding) {
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("abcde", 3), "abcde");
}

TEST(EnvTest, DefaultsWhenUnset) {
  unsetenv("CDCL_TEST_UNSET_VAR");
  EXPECT_EQ(EnvInt("CDCL_TEST_UNSET_VAR", 5), 5);
  EXPECT_DOUBLE_EQ(EnvDouble("CDCL_TEST_UNSET_VAR", 2.5), 2.5);
  EXPECT_TRUE(EnvBool("CDCL_TEST_UNSET_VAR", true));
  EXPECT_EQ(EnvString("CDCL_TEST_UNSET_VAR", "d"), "d");
}

TEST(EnvTest, ParsesSetValues) {
  setenv("CDCL_TEST_SET_VAR", "12", 1);
  EXPECT_EQ(EnvInt("CDCL_TEST_SET_VAR", 5), 12);
  setenv("CDCL_TEST_SET_VAR", "3.25", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("CDCL_TEST_SET_VAR", 0.0), 3.25);
  setenv("CDCL_TEST_SET_VAR", "true", 1);
  EXPECT_TRUE(EnvBool("CDCL_TEST_SET_VAR", false));
  setenv("CDCL_TEST_SET_VAR", "a,b", 1);
  auto list = EnvStringList("CDCL_TEST_SET_VAR", {});
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0], "a");
  setenv("CDCL_TEST_SET_VAR", "-7", 1);
  EXPECT_EQ(EnvInt("CDCL_TEST_SET_VAR", 5), -7);
  setenv("CDCL_TEST_SET_VAR", "-0.5", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("CDCL_TEST_SET_VAR", 0.0), -0.5);
  unsetenv("CDCL_TEST_SET_VAR");
}

// Regression: these used to silently parse to 0 (atoll/atof semantics with
// no endptr/errno check), so a typo'd knob like CDCL_EVAL_BATCH=4O zeroed
// the setting instead of keeping the default.
TEST(EnvTest, MalformedValuesFallBackToDefault) {
  const char* bad_ints[] = {"abc", "12abc", "4O", "", " ", "0x10", "1.5",
                            "99999999999999999999999",
                            "-99999999999999999999999"};
  for (const char* v : bad_ints) {
    setenv("CDCL_TEST_BAD_VAR", v, 1);
    EXPECT_EQ(EnvInt("CDCL_TEST_BAD_VAR", 42), 42) << "value \"" << v << '"';
  }
  const char* bad_doubles[] = {"abc", "1.5x", "", " ", "2e999"};
  for (const char* v : bad_doubles) {
    setenv("CDCL_TEST_BAD_VAR", v, 1);
    EXPECT_DOUBLE_EQ(EnvDouble("CDCL_TEST_BAD_VAR", 2.5), 2.5)
        << "value \"" << v << '"';
  }
  // Valid values still parse after the hardening.
  setenv("CDCL_TEST_BAD_VAR", "17", 1);
  EXPECT_EQ(EnvInt("CDCL_TEST_BAD_VAR", 42), 17);
  setenv("CDCL_TEST_BAD_VAR", "1e3", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("CDCL_TEST_BAD_VAR", 2.5), 1000.0);
  unsetenv("CDCL_TEST_BAD_VAR");
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(&pool, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForInlineWithoutPool) {
  std::vector<int> hits(8, 0);
  ParallelFor(nullptr, hits.size(), [&](size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "v"});
  t.AddRow({"a", "1.00"});
  t.AddRow({"longer", "2"});
  std::string text = t.ToText();
  EXPECT_NE(text.find("| name   | v    |"), std::string::npos);
  EXPECT_NE(text.find("| longer | 2    |"), std::string::npos);
}

TEST(TablePrinterTest, CsvRoundTrip) {
  TablePrinter t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

// A float count whose byte size wraps past 2^64 must still be bounded by the
// bytes remaining: 2^62 + 1 floats "need" 4 bytes after the multiply wraps.
TEST(ByteReaderTest, FloatCountIsBoundedWithoutOverflow) {
  ByteWriter w;
  w.PutU64((uint64_t{1} << 62) + 1);
  w.PutF32(1.0f);
  ByteReader r(w.bytes());
  std::vector<float> values;
  bool ok = true;
  EXPECT_NO_THROW(ok = r.GetFloats(&values));
  EXPECT_FALSE(ok);
  EXPECT_TRUE(values.empty());
}

}  // namespace
}  // namespace cdcl
