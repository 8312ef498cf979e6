// Tests for the util module: Status/Result, Rng, Table, Stopwatch, and the
// spec grammar with the registries of all four policy kinds built on it.
#include "src/util/status.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cl/retrieval.h"
#include "src/cl/selection.h"
#include "src/stream/transform.h"
#include "src/stream/trigger.h"
#include "src/util/rng.h"
#include "src/util/spec.h"
#include "src/util/stopwatch.h"
#include "src/util/table.h"

namespace edsr {
namespace {

using util::Result;
using util::Rng;
using util::SpecParams;
using util::SpecRegistry;
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

// ---- Spec grammar ----------------------------------------------------------

SpecParams MustParse(const std::string& spec) {
  Result<SpecParams> parsed = SpecParams::Parse(spec);
  EXPECT_TRUE(parsed.ok()) << spec << ": " << parsed.status().message();
  return std::move(parsed).ValueOrDie();
}

TEST(SpecParams, RejectsEmptyNames) {
  for (const char* spec : {"", ":a=1"}) {
    Result<SpecParams> parsed = SpecParams::Parse(spec);
    ASSERT_FALSE(parsed.ok()) << spec;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SpecParams, ParsesBareNamesAndSkipsEmptyPairs) {
  for (const char* spec : {"x", "x:"}) {
    SpecParams params = MustParse(spec);
    EXPECT_EQ(params.name(), "x");
    EXPECT_TRUE(params.Finish().ok()) << spec;
  }
  SpecParams params = MustParse("x:a=1,,b=2");
  EXPECT_EQ(params.GetInt("a", 0), 1);
  EXPECT_EQ(params.GetInt("b", 0), 2);
  EXPECT_EQ(params.GetInt("c", 7), 7);
  EXPECT_TRUE(params.Finish().ok());
}

TEST(SpecParams, RejectsMalformedPairsNamingThem) {
  for (const std::string pair : {"a", "=1", "a="}) {
    Result<SpecParams> parsed = SpecParams::Parse("x:" + pair);
    ASSERT_FALSE(parsed.ok()) << pair;
    EXPECT_NE(parsed.status().message().find("\"" + pair + "\""),
              std::string::npos)
        << parsed.status().message();
  }
}

TEST(SpecParams, RejectsARepeatedKeyNamingIt) {
  for (const std::string spec : {"x:a=1,a=2", "x:a=1,b=2,a=1"}) {
    Result<SpecParams> parsed = SpecParams::Parse(spec);
    ASSERT_FALSE(parsed.ok()) << spec;
    EXPECT_EQ(parsed.status().message(),
              "repeated parameter \"a\" in spec \"" + spec + "\"");
  }
}

TEST(SpecParams, RejectsNonFiniteAndOutOfRangeValuesNamingTheKey) {
  for (const std::string value : {"nan", "inf", "-inf", "1e999", "-1e999"}) {
    SpecParams params = MustParse("x:alpha=" + value);
    EXPECT_EQ(params.GetDouble("alpha", 0.5), 0.5) << value;
    EXPECT_EQ(params.Finish().message(),
              "x: parameter alpha=" + value + " is not a finite number");
  }
  for (const std::string value :
       {"99999999999999999999", "-99999999999999999999"}) {
    SpecParams params = MustParse("x:iters=" + value);
    EXPECT_EQ(params.GetInt("iters", 10), 10) << value;
    EXPECT_EQ(params.Finish().message(),
              "x: parameter iters=" + value + " is out of the int64 range");
  }
  // A value must parse to its last byte, embedded NUL included.
  SpecParams truncated = MustParse(std::string("x:n=1\0z", 7));
  EXPECT_EQ(truncated.GetInt("n", 0), 0);
  EXPECT_FALSE(truncated.Finish().ok());
  // The first malformed value is the one reported.
  SpecParams two = MustParse("x:a=nan,b=q");
  two.GetDouble("a", 0.0);
  two.GetInt("b", 0);
  EXPECT_EQ(two.Finish().message(),
            "x: parameter a=nan is not a finite number");
}

TEST(SpecParams, AcceptsTheLimitsOfEachType) {
  SpecParams params = MustParse(
      "x:lo=-9223372036854775808,hi=9223372036854775807,tiny=1e-300,"
      "big=1e300,e=2.5e-3");
  EXPECT_EQ(params.GetInt("lo", 0), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(params.GetInt("hi", 0), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(params.GetDouble("tiny", 0.0), 1e-300);
  EXPECT_EQ(params.GetDouble("big", 0.0), 1e300);
  EXPECT_EQ(params.GetDouble("e", 0.0), 2.5e-3);
  EXPECT_TRUE(params.Finish().ok());
}

// ---- The one registry ------------------------------------------------------

Result<std::unique_ptr<int>> MakeInt(SpecParams& params) {
  int64_t value = params.GetInt("value", 1);
  EDSR_RETURN_NOT_OK(params.Finish());
  return std::make_unique<int>(static_cast<int>(value));
}

TEST(SpecRegistry, BuildsFromItsTable) {
  SpecRegistry<int> registry("widget", {{"one", MakeInt}, {"two", MakeInt}});
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"one", "two"}));
  Result<std::unique_ptr<int>> made = registry.Create("two:value=5");
  ASSERT_TRUE(made.ok());
  EXPECT_EQ(*made.ValueOrDie(), 5);
  EXPECT_FALSE(registry.Create("one:value=x").ok());
  EXPECT_FALSE(registry.Create("").ok());
}

TEST(SpecRegistry, DuplicateNameAbortsWhenTheTableIsBuilt) {
  std::vector<std::pair<std::string, SpecRegistry<int>::Factory>> table = {
      {"a", MakeInt}, {"b", MakeInt}, {"a", MakeInt}};
  EXPECT_DEATH(SpecRegistry<int>("widget", table),
               "widget \"a\" registered twice");
}

TEST(SpecRegistry, UnknownNameNamesTheKindAndListsEveryEntry) {
  EXPECT_EQ(cl::SelectorRegistry::Global().Create("bogus").status().message(),
            "unknown selector \"bogus\"; registered: random, distant, "
            "kmeans, minvar, high-entropy, gradient-affinity, complementary");
  EXPECT_EQ(
      cl::RetrievalRegistry::Global().Create("bogus").status().message(),
      "unknown retrieval policy \"bogus\"; registered: uniform, max-loss, "
      "entropy, margin");
  EXPECT_EQ(
      stream::TriggerRegistry::Global().Create("bogus").status().message(),
      "unknown cycle trigger \"bogus\"; registered: count, drift");
  EXPECT_EQ(
      stream::StreamRegistry::Global().Create("bogus").status().message(),
      "unknown stream transform \"bogus\"; registered: imbalance, "
      "label_noise, corrupt");
}

// Create on one registry returns a T named as the spec names it, or an
// InvalidArgument; it never aborts. True when a T was made.
template <typename T>
bool PolicyOrStatus(const SpecRegistry<T>& registry, const std::string& spec) {
  Result<std::unique_ptr<T>> made = registry.Create(spec);
  if (!made.ok()) {
    EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument) << spec;
    EXPECT_FALSE(made.status().message().empty()) << spec;
    return false;
  }
  const std::unique_ptr<T>& policy = made.ValueOrDie();
  if (policy == nullptr) {
    ADD_FAILURE() << "null policy for " << spec;
  } else {
    EXPECT_EQ(policy->name(), MustParse(spec).name());
  }
  return true;
}

// In-tree mutation fuzzing of the one spec grammar: every built-in name,
// with each parameter its factory reads, mutated by byte edits drawn from
// the grammar's alphabet and from arbitrary bytes.
TEST(SpecRegistry, MutatedBuiltinSpecsReturnAPolicyOrAStatus) {
  std::vector<std::string> seeds = {
      "kmeans:iters=10",
      "minvar:clusters=0",
      "high-entropy:mode=pca,components=8",
      "gradient-affinity:tau=1.0,kappa=0.5",
      "entropy:order=largest",
      "count:n=256",
      "drift:threshold=0.02,min=64,max=512,check=4",
      "imbalance:alpha=1.5",
      "label_noise:p=0.1",
      "corrupt:p=0.05,strength=0.5,burst=4,occlusion=0.25"};
  for (const auto& names :
       {cl::SelectorRegistry::Global().Names(),
        cl::RetrievalRegistry::Global().Names(),
        stream::TriggerRegistry::Global().Names(),
        stream::StreamRegistry::Global().Names()}) {
    seeds.insert(seeds.end(), names.begin(), names.end());
  }
  const std::string alphabet = ":,=.-+eE0123456789nainfx ";
  const int64_t last = static_cast<int64_t>(alphabet.size()) - 1;
  Rng rng(2024);
  int accepted = 0;
  int rejected = 0;
  for (const std::string& seed : seeds) {
    for (int round = 0; round < 200; ++round) {
      std::string spec = seed;
      int64_t edits = rng.UniformInt(1, 3);
      for (int64_t e = 0; e < edits; ++e) {
        int64_t size = static_cast<int64_t>(spec.size());
        int64_t at = rng.UniformInt(0, size);
        char byte = rng.Bernoulli(0.8f)
                        ? alphabet[rng.UniformInt(0, last)]
                        : static_cast<char>(rng.UniformInt(0, 255));
        switch (rng.UniformInt(0, 3)) {
          case 0:  // replace
            if (at < size) spec[at] = byte;
            break;
          case 1:  // insert
            spec.insert(spec.begin() + at, byte);
            break;
          case 2:  // delete
            if (at < size) spec.erase(spec.begin() + at);
            break;
          default:  // truncate
            spec.resize(at);
            break;
        }
      }
      int made = PolicyOrStatus(cl::SelectorRegistry::Global(), spec) +
                 PolicyOrStatus(cl::RetrievalRegistry::Global(), spec) +
                 PolicyOrStatus(stream::TriggerRegistry::Global(), spec) +
                 PolicyOrStatus(stream::StreamRegistry::Global(), spec);
      ++(made > 0 ? accepted : rejected);
    }
  }
  // The mutants reach both outcomes.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace edsr
