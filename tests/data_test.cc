// Tests for datasets, synthetic generators, task splitting, and batching.
#include "src/data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "src/data/batching.h"
#include "src/data/task_sequence.h"

namespace edsr {
namespace {

using data::Dataset;
using data::SyntheticImageConfig;
using data::SyntheticTabularConfig;
using data::TaskSequence;

SyntheticImageConfig TinyImageConfig() {
  SyntheticImageConfig config;
  config.name = "tiny";
  config.num_classes = 4;
  config.train_per_class = 10;
  config.test_per_class = 5;
  config.geometry = {3, 4, 4};
  config.latent_dim = 6;
  config.seed = 123;
  return config;
}

TEST(Dataset, BasicAccessors) {
  Dataset d("toy", {1, 2, 3, 4, 5, 6}, {0, 1}, 3, 2);
  EXPECT_EQ(d.size(), 2);
  EXPECT_EQ(d.dim(), 3);
  EXPECT_FALSE(d.is_image());
  EXPECT_EQ(d.Row(1)[2], 6.0f);
  EXPECT_EQ(d.Label(1), 1);
}

TEST(Dataset, RejectsInconsistentShapes) {
  EXPECT_DEATH(Dataset("bad", {1, 2, 3}, {0, 1}, 2, 2), "mismatch");
  EXPECT_DEATH(Dataset("bad", {1, 2}, {0, 5}, 1, 2), "out of range");
}

TEST(Dataset, GatherAndSubset) {
  Dataset d("toy", {1, 2, 3, 4, 5, 6, 7, 8}, {0, 1, 0, 1}, 2, 2);
  tensor::Tensor batch = d.Gather({3, 0});
  EXPECT_EQ(batch.shape(), (tensor::Shape{2, 2}));
  EXPECT_EQ(batch.at(0, 0), 7.0f);
  EXPECT_EQ(batch.at(1, 1), 2.0f);
  Dataset sub = d.Subset({1, 2}, "sub");
  EXPECT_EQ(sub.size(), 2);
  EXPECT_EQ(sub.Label(0), 1);
  EXPECT_EQ(sub.Row(1)[0], 5.0f);
}

TEST(Dataset, IndicesOfClasses) {
  Dataset d("toy", {1, 2, 3, 4, 5, 6, 7, 8}, {0, 1, 2, 1}, 2, 3);
  std::vector<int64_t> idx = d.IndicesOfClasses({1});
  EXPECT_EQ(idx, (std::vector<int64_t>{1, 3}));
}

TEST(SyntheticImage, ShapesAndRanges) {
  data::SyntheticImagePair pair = MakeSyntheticImageData(TinyImageConfig());
  EXPECT_EQ(pair.train.size(), 40);
  EXPECT_EQ(pair.test.size(), 20);
  EXPECT_EQ(pair.train.dim(), 48);
  EXPECT_TRUE(pair.train.is_image());
  for (float v : pair.train.features()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(SyntheticImage, Deterministic) {
  data::SyntheticImagePair a = MakeSyntheticImageData(TinyImageConfig());
  data::SyntheticImagePair b = MakeSyntheticImageData(TinyImageConfig());
  EXPECT_EQ(a.train.features(), b.train.features());
}

TEST(SyntheticImage, ClassesAreSeparated) {
  // Same-class pixel distance should be smaller on average than
  // cross-class distance, otherwise no unsupervised method can work.
  SyntheticImageConfig config = TinyImageConfig();
  config.train_per_class = 20;
  data::SyntheticImagePair pair = MakeSyntheticImageData(config);
  const Dataset& d = pair.train;
  double same = 0.0, cross = 0.0;
  int64_t same_n = 0, cross_n = 0;
  for (int64_t i = 0; i < d.size(); ++i) {
    for (int64_t j = i + 1; j < d.size(); ++j) {
      double dist = 0.0;
      for (int64_t k = 0; k < d.dim(); ++k) {
        double diff = d.Row(i)[k] - d.Row(j)[k];
        dist += diff * diff;
      }
      if (d.Label(i) == d.Label(j)) {
        same += dist;
        ++same_n;
      } else {
        cross += dist;
        ++cross_n;
      }
    }
  }
  EXPECT_LT(same / same_n, 0.8 * cross / cross_n);
}

TEST(SyntheticImage, TrainTestShareStructure) {
  // A test image should be closer (on average) to train images of its own
  // class than to other classes.
  SyntheticImageConfig config = TinyImageConfig();
  data::SyntheticImagePair pair = MakeSyntheticImageData(config);
  int correct = 0;
  for (int64_t t = 0; t < pair.test.size(); ++t) {
    std::vector<double> class_dist(config.num_classes, 0.0);
    std::vector<int> class_count(config.num_classes, 0);
    for (int64_t i = 0; i < pair.train.size(); ++i) {
      double dist = 0.0;
      for (int64_t k = 0; k < pair.train.dim(); ++k) {
        double diff = pair.test.Row(t)[k] - pair.train.Row(i)[k];
        dist += diff * diff;
      }
      class_dist[pair.train.Label(i)] += dist;
      class_count[pair.train.Label(i)] += 1;
    }
    int64_t best = 0;
    double best_val = 1e30;
    for (int64_t c = 0; c < config.num_classes; ++c) {
      double avg = class_dist[c] / class_count[c];
      if (avg < best_val) {
        best_val = avg;
        best = c;
      }
    }
    if (best == pair.test.Label(t)) ++correct;
  }
  // Nearest-class-mean in pixel space should beat chance comfortably.
  EXPECT_GT(correct, pair.test.size() / 2);
}

TEST(SyntheticImage, PresetsMatchPaperStructure) {
  // Scaled class counts; split structure mirrors the paper (5/10/10/15
  // increments with equal class chunks).
  EXPECT_EQ(data::SynthCifar10Config(0).num_classes % 5, 0);
  EXPECT_EQ(data::SynthCifar100Config(0).num_classes % 10, 0);
  EXPECT_EQ(data::SynthTinyImageNetConfig(0).num_classes % 10, 0);
  EXPECT_EQ(data::SynthDomainNetConfig(0).num_classes % 15, 0);
  // Relative difficulty ordering is preserved.
  EXPECT_GT(data::SynthCifar10Config(0).class_separation,
            data::SynthCifar100Config(0).class_separation);
  EXPECT_GT(data::SynthCifar100Config(0).class_separation,
            data::SynthTinyImageNetConfig(0).class_separation);
  EXPECT_GT(data::SynthDomainNetConfig(0).style_strength, 0.0f);
  // Different seeds must give different data.
  auto a = MakeSyntheticImageData(data::SynthCifar10Config(0));
  auto b = MakeSyntheticImageData(data::SynthCifar10Config(1));
  EXPECT_NE(a.train.features(), b.train.features());
}

TEST(SyntheticTabular, PositiveRateRespected) {
  SyntheticTabularConfig config;
  config.train_size = 4000;
  config.positive_rate = 0.25f;
  config.seed = 9;
  data::SyntheticTabularPair pair = MakeSyntheticTabularData(config);
  int64_t positives = 0;
  for (int64_t label : pair.train.labels()) positives += label;
  double rate = static_cast<double>(positives) / pair.train.size();
  EXPECT_NEAR(rate, 0.25, 0.03);
}

TEST(SyntheticTabular, BenchmarkPresetsMatchTable2) {
  std::vector<SyntheticTabularConfig> configs =
      data::TabularBenchmarkConfigs(0);
  ASSERT_EQ(configs.size(), 5u);
  EXPECT_EQ(configs[0].num_features, 16);  // Bank
  EXPECT_NEAR(configs[0].positive_rate, 0.117f, 1e-4f);
  EXPECT_EQ(configs[3].num_features, 20);  // BlastChar
  EXPECT_EQ(configs[4].num_features, 10);  // Shrutime
  // Heterogeneous dims is the property the tabular experiment exercises.
  std::set<int64_t> dims;
  for (const auto& c : configs) dims.insert(c.num_features);
  EXPECT_EQ(dims.size(), 5u);
}

TEST(TaskSequence, SplitByClassesPartitions) {
  SyntheticImageConfig config = TinyImageConfig();
  data::SyntheticImagePair pair = MakeSyntheticImageData(config);
  TaskSequence seq =
      TaskSequence::SplitByClasses(pair.train, pair.test, 2, nullptr);
  EXPECT_EQ(seq.num_tasks(), 2);
  EXPECT_EQ(seq.task(0).classes, (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(seq.task(1).classes, (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(seq.task(0).train.size(), 20);
  EXPECT_EQ(seq.task(0).test.size(), 10);
  // Disjoint: no class appears in two tasks.
  for (int64_t i = 0; i < seq.task(0).train.size(); ++i) {
    EXPECT_LT(seq.task(0).train.Label(i), 2);
  }
}

TEST(TaskSequence, ShuffledClassOrder) {
  SyntheticImageConfig config = TinyImageConfig();
  data::SyntheticImagePair pair = MakeSyntheticImageData(config);
  util::Rng rng(77);
  TaskSequence seq =
      TaskSequence::SplitByClasses(pair.train, pair.test, 4, &rng);
  std::set<int64_t> seen;
  for (int64_t t = 0; t < 4; ++t) {
    for (int64_t c : seq.task(t).classes) seen.insert(c);
  }
  EXPECT_EQ(seen.size(), 4u);  // every class exactly once
}

TEST(TaskSequence, IndivisibleClassCountDies) {
  SyntheticImageConfig config = TinyImageConfig();
  data::SyntheticImagePair pair = MakeSyntheticImageData(config);
  EXPECT_DEATH(TaskSequence::SplitByClasses(pair.train, pair.test, 3, nullptr),
               "divisible");
}

TEST(TaskSequence, MergedTrainAccumulates) {
  SyntheticImageConfig config = TinyImageConfig();
  data::SyntheticImagePair pair = MakeSyntheticImageData(config);
  TaskSequence seq =
      TaskSequence::SplitByClasses(pair.train, pair.test, 2, nullptr);
  EXPECT_EQ(seq.MergedTrain(0).size(), 20);
  EXPECT_EQ(seq.MergedTrain(1).size(), 40);
  EXPECT_EQ(seq.MergedTest(1).size(), 20);
}

TEST(TaskSequence, FromDatasetsKeepsOrder) {
  std::vector<SyntheticTabularConfig> configs =
      data::TabularBenchmarkConfigs(1);
  std::vector<std::pair<Dataset, Dataset>> pairs;
  for (const auto& c : configs) {
    auto p = MakeSyntheticTabularData(c);
    pairs.emplace_back(p.train, p.test);
  }
  TaskSequence seq = TaskSequence::FromDatasets(pairs);
  EXPECT_EQ(seq.num_tasks(), 5);
  EXPECT_EQ(seq.task(0).train.dim(), 16);
  EXPECT_EQ(seq.task(3).train.dim(), 20);
}

TEST(BatchIterator, CoversAllIndicesOncePerEpoch) {
  util::Rng rng(5);
  data::BatchIterator it(23, 5, &rng);
  std::vector<int64_t> batch;
  std::set<int64_t> seen;
  int64_t total = 0;
  while (it.Next(&batch)) {
    for (int64_t i : batch) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate index in epoch";
    }
    total += batch.size();
  }
  EXPECT_EQ(total, 23);
  it.Reset();
  total = 0;
  while (it.Next(&batch)) total += batch.size();
  EXPECT_EQ(total, 23);
}

TEST(BatchIterator, DropsTinyTail) {
  util::Rng rng(6);
  data::BatchIterator it(9, 4, &rng);
  // 9 = 4 + 4 + 1; the final singleton is dropped.
  std::vector<int64_t> batch;
  int64_t total = 0;
  int64_t batches = 0;
  while (it.Next(&batch)) {
    total += batch.size();
    ++batches;
  }
  EXPECT_EQ(batches, 2);
  EXPECT_EQ(total, 8);
}

TEST(ImagePresets, NamesCoverEveryBenchmark) {
  std::vector<std::string> names = data::ImagePresetNames();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "SynthCifar10");
  for (const std::string& name : names) {
    auto config = data::ImagePresetConfig(name, /*seed=*/3);
    ASSERT_TRUE(config.ok()) << name;
    EXPECT_GT((*config).num_classes, 0) << name;
  }
}

TEST(ImagePresets, LookupIsSeededAndMatchesDirectConfig) {
  auto config = data::ImagePresetConfig("SynthCifar10", /*seed=*/5);
  ASSERT_TRUE(config.ok());
  data::SyntheticImageConfig direct = data::SynthCifar10Config(5);
  EXPECT_EQ((*config).name, direct.name);
  EXPECT_EQ((*config).num_classes, direct.num_classes);
  EXPECT_EQ((*config).seed, direct.seed);
}

TEST(ImagePresets, UnknownNameListsPresets) {
  auto config = data::ImagePresetConfig("Cifar10", /*seed=*/0);
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.status().message().find("SynthCifar10"),
            std::string::npos);
  EXPECT_NE(config.status().message().find("SynthDomainNet"),
            std::string::npos);
}

}  // namespace
}  // namespace edsr
