// Tests for the util module: Status/Result, Rng, Table, Stopwatch.
#include "src/util/status.h"

#include <cmath>
#include <cstdio>
#include <set>

#include <gtest/gtest.h>

#include "src/util/rng.h"
#include "src/util/stopwatch.h"
#include "src/util/table.h"

namespace edsr {
namespace {

using util::Result;
using util::Rng;
using util::Status;
using util::StatusCode;

TEST(Status, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad dims");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad dims");
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(Status, CheckAbortsOnError) {
  Status::OK().Check();  // no-op
  EXPECT_DEATH(Status::Internal("boom").Check(), "boom");
}

TEST(Result, HoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ValueOrDie(), 42);
  Result<int> err(Status::InvalidArgument("nope"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
  EXPECT_DEATH(err.ValueOrDie(), "nope");
}

util::Status ReturnsEarly(bool fail) {
  EDSR_RETURN_NOT_OK(fail ? Status::IoError("inner") : Status::OK());
  return Status::Internal("reached end");
}

TEST(Result, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(ReturnsEarly(true).code(), StatusCode::kIoError);
  EXPECT_EQ(ReturnsEarly(false).code(), StatusCode::kInternal);
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Uniform(), b.Uniform());
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(1);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.UniformInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, BetaInUnitInterval) {
  Rng rng(2);
  double mean = 0.0;
  for (int i = 0; i < 2000; ++i) {
    float v = rng.Beta(0.4f, 0.4f);
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
    mean += v;
  }
  EXPECT_NEAR(mean / 2000, 0.5, 0.05);  // symmetric Beta
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(3);
  std::vector<int64_t> perm = rng.Permutation(50);
  std::set<int64_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 49);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(4);
  std::vector<int64_t> sample = rng.SampleWithoutReplacement(20, 7);
  std::set<int64_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_DEATH(rng.SampleWithoutReplacement(3, 5), "");
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(5);
  std::vector<float> weights = {0.0f, 1.0f, 0.0f};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.Categorical(weights), 1);
  // Rough proportionality check.
  std::vector<float> biased = {1.0f, 3.0f};
  int64_t ones = 0;
  for (int i = 0; i < 4000; ++i) ones += rng.Categorical(biased);
  EXPECT_NEAR(static_cast<double>(ones) / 4000, 0.75, 0.04);
  EXPECT_DEATH(rng.Categorical({-1.0f}), "non-negative");
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(6);
  Rng child = parent.Fork();
  // Not a strict statistical test — just different streams.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (parent.Uniform() != child.Uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Table, TextAndCsvRendering) {
  util::Table table({"a", "b"});
  table.AddRow({"x", "1.0"});
  table.AddRow({"longer", "2.5"});
  std::string text = table.ToText();
  EXPECT_NE(text.find("| a"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_EQ(table.ToCsv(), "a,b\nx,1.0\nlonger,2.5\n");
  EXPECT_DEATH(table.AddRow({"only-one"}), "row width");
}

TEST(Table, CsvRoundTripToDisk) {
  util::Table table({"h"});
  table.AddRow({"v"});
  std::string path = ::testing::TempDir() + "/edsr_table.csv";
  table.WriteCsv(path).Check();
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buffer[16] = {0};
  ASSERT_NE(std::fgets(buffer, sizeof(buffer), f), nullptr);
  EXPECT_STREQ(buffer, "h\n");
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(Table, MeanStdFormatting) {
  EXPECT_EQ(util::Table::MeanStd(12.345, 0.678), "12.35 ± 0.68");
  EXPECT_EQ(util::Table::Fixed(3.14159, 3), "3.142");
}

TEST(MeanStdDev, MatchesManualComputation) {
  util::MeanStdDev stat = util::ComputeMeanStd({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(stat.mean, 2.5);
  EXPECT_NEAR(stat.stddev, std::sqrt(1.25), 1e-12);
  util::MeanStdDev empty = util::ComputeMeanStd({});
  EXPECT_EQ(empty.mean, 0.0);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  util::Stopwatch watch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  double first = watch.ElapsedSeconds();
  EXPECT_GT(first, 0.0);
  watch.Restart();
  EXPECT_LE(watch.ElapsedSeconds(), first + 1.0);
}

}  // namespace
}  // namespace edsr
