// Tests for image and tabular augmentations.
#include "src/augment/image_augment.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/augment/tabular_augment.h"
#include "src/augment/view_provider.h"
#include "src/data/synthetic.h"
#include "tests/testing_util.h"

namespace edsr {
namespace {

using data::ImageGeometry;
using testing::ExpectSameBits;

// The five ops of the SimSiam recipe applied one after another in place,
// each as it stood before SimSiamView fused them: the reference the fused
// view must match bit for bit, drawing the same values in the same order.
void ReferenceCrop(float* image, const ImageGeometry& g, util::Rng* rng) {
  const int64_t padding = 1;
  int64_t ph = g.height + 2 * padding;
  int64_t pw = g.width + 2 * padding;
  int64_t off_i = rng->UniformInt(0, 2 * padding);
  int64_t off_j = rng->UniformInt(0, 2 * padding);
  std::vector<float> padded(g.channels * ph * pw, 0.0f);
  for (int64_t c = 0; c < g.channels; ++c) {
    for (int64_t i = 0; i < g.height; ++i) {
      std::copy(image + (c * g.height + i) * g.width,
                image + (c * g.height + i + 1) * g.width,
                padded.data() + (c * ph + i + padding) * pw + padding);
    }
  }
  for (int64_t c = 0; c < g.channels; ++c) {
    for (int64_t i = 0; i < g.height; ++i) {
      std::copy(padded.data() + (c * ph + i + off_i) * pw + off_j,
                padded.data() + (c * ph + i + off_i) * pw + off_j + g.width,
                image + (c * g.height + i) * g.width);
    }
  }
}

void ReferenceFlip(float* image, const ImageGeometry& g, util::Rng* rng) {
  if (!rng->Bernoulli(0.5f)) return;
  for (int64_t c = 0; c < g.channels; ++c) {
    for (int64_t i = 0; i < g.height; ++i) {
      float* row = image + (c * g.height + i) * g.width;
      std::reverse(row, row + g.width);
    }
  }
}

void ReferenceJitter(float* image, const ImageGeometry& g, util::Rng* rng) {
  const float strength = 0.4f;
  if (!rng->Bernoulli(0.8f)) return;
  float brightness = rng->Uniform(-strength, strength);
  float contrast = rng->Uniform(1.0f - strength, 1.0f + strength);
  int64_t area = g.height * g.width;
  for (int64_t c = 0; c < g.channels; ++c) {
    float channel_scale = rng->Uniform(1.0f - strength, 1.0f + strength);
    float* plane = image + c * area;
    float mean = 0.0f;
    for (int64_t i = 0; i < area; ++i) mean += plane[i];
    mean /= static_cast<float>(area);
    for (int64_t i = 0; i < area; ++i) {
      float v = (plane[i] - mean) * contrast * channel_scale + mean +
                brightness;
      plane[i] = std::clamp(v, 0.0f, 1.0f);
    }
  }
}

void ReferenceGray(float* image, const ImageGeometry& g, util::Rng* rng) {
  if (g.channels < 2 || !rng->Bernoulli(0.2f)) return;
  int64_t area = g.height * g.width;
  for (int64_t i = 0; i < area; ++i) {
    float mean = 0.0f;
    for (int64_t c = 0; c < g.channels; ++c) mean += image[c * area + i];
    mean /= static_cast<float>(g.channels);
    for (int64_t c = 0; c < g.channels; ++c) image[c * area + i] = mean;
  }
}

void ReferenceBlur(float* image, const ImageGeometry& g, util::Rng* rng) {
  if (!rng->Bernoulli(0.3f)) return;
  float sigma = rng->Uniform(0.3f, 1.0f);
  int64_t radius = std::max<int64_t>(1, static_cast<int64_t>(2.0f * sigma));
  std::vector<float> kernel(2 * radius + 1);
  float total = 0.0f;
  for (int64_t k = -radius; k <= radius; ++k) {
    float v = std::exp(-0.5f * (k * k) / (sigma * sigma));
    kernel[k + radius] = v;
    total += v;
  }
  for (float& v : kernel) v /= total;
  int64_t area = g.height * g.width;
  std::vector<float> tmp(area);
  for (int64_t c = 0; c < g.channels; ++c) {
    float* plane = image + c * area;
    for (int64_t i = 0; i < g.height; ++i) {
      for (int64_t j = 0; j < g.width; ++j) {
        float acc = 0.0f;
        for (int64_t k = -radius; k <= radius; ++k) {
          int64_t jj = std::clamp<int64_t>(j + k, 0, g.width - 1);
          acc += kernel[k + radius] * plane[i * g.width + jj];
        }
        tmp[i * g.width + j] = acc;
      }
    }
    for (int64_t i = 0; i < g.height; ++i) {
      for (int64_t j = 0; j < g.width; ++j) {
        float acc = 0.0f;
        for (int64_t k = -radius; k <= radius; ++k) {
          int64_t ii = std::clamp<int64_t>(i + k, 0, g.height - 1);
          acc += kernel[k + radius] * tmp[ii * g.width + j];
        }
        plane[i * g.width + j] = acc;
      }
    }
  }
}

std::vector<float> ReferenceView(std::vector<float> image,
                                 const ImageGeometry& g, util::Rng* rng) {
  ReferenceCrop(image.data(), g, rng);
  ReferenceFlip(image.data(), g, rng);
  ReferenceJitter(image.data(), g, rng);
  ReferenceGray(image.data(), g, rng);
  ReferenceBlur(image.data(), g, rng);
  return image;
}

// Pixels mostly in [0, 1], with values past both clamp bounds, exact 0 and
// 1, and -0 mixed in.
std::vector<float> TestImage(const ImageGeometry& g, util::Rng* rng) {
  const float specials[] = {-0.0f, 0.0f, 1.0f, -0.5f, 1.5f};
  std::vector<float> image(g.Pixels());
  for (size_t i = 0; i < image.size(); ++i) {
    image[i] = i % 7 == 3 ? specials[(i / 7) % 5] : rng->Uniform(0.0f, 1.0f);
  }
  return image;
}

TEST(SimSiamView, MatchesTheComposedOpsToTheBit) {
  // {3,8,8} is the presets' geometry; {1,4,4} skips the grayscale draw;
  // {3,5,7} leaves partial four-lane blocks; {2,2,9} has no row whose blur
  // taps all lie inside the image vertically.
  const std::vector<ImageGeometry> geometries = {
      {3, 8, 8}, {1, 4, 4}, {3, 5, 7}, {2, 2, 9}};
  util::Rng pixels(17);
  for (const ImageGeometry& g : geometries) {
    for (uint64_t seed = 0; seed < 200; ++seed) {
      SCOPED_TRACE("geometry " + std::to_string(g.channels) + "x" +
                   std::to_string(g.height) + "x" + std::to_string(g.width) +
                   " seed " + std::to_string(seed));
      const std::vector<float> image = TestImage(g, &pixels);
      util::Rng reference_rng(seed);
      const std::vector<float> expected =
          ReferenceView(image, g, &reference_rng);
      util::Rng rng(seed);
      std::vector<float> view(image.size());
      augment::SimSiamView(image.data(), g, &rng, view.data());
      ExpectSameBits(view, expected, "view");
      EXPECT_EQ(rng.SerializeState(), reference_rng.SerializeState());
    }
  }
}

// The recipe's random choices for one seed, replayed by making the draws
// SimSiamView makes, in its order; `state` is the Rng state after them.
struct Choices {
  int64_t off_i = 0;
  int64_t off_j = 0;
  bool flip = false;
  bool jitter = false;
  bool gray = false;
  bool blur = false;
  std::string state;
};

Choices DrawChoices(const ImageGeometry& g, uint64_t seed) {
  util::Rng rng(seed);
  Choices c;
  c.off_i = rng.UniformInt(0, 2);
  c.off_j = rng.UniformInt(0, 2);
  c.flip = rng.Bernoulli(0.5f);
  c.jitter = rng.Bernoulli(0.8f);
  if (c.jitter) {
    rng.Uniform(-0.4f, 0.4f);
    for (int64_t k = 0; k < 1 + g.channels; ++k) rng.Uniform(0.6f, 1.4f);
  }
  c.gray = g.channels >= 2 && rng.Bernoulli(0.2f);
  c.blur = rng.Bernoulli(0.3f);
  if (c.blur) rng.Uniform(0.3f, 1.0f);
  c.state = rng.SerializeState();
  return c;
}

// The first seed whose choices `want` accepts.
template <typename Want>
uint64_t FindSeed(const ImageGeometry& g, Want want) {
  for (uint64_t seed = 0; seed < 10000; ++seed) {
    if (want(DrawChoices(g, seed))) return seed;
  }
  ADD_FAILURE() << "no seed below 10000 makes the wanted choices";
  return 0;
}

// SimSiamView of `image` under Rng(seed). Checks that the view writes no
// float past C * H * W and that the replayed draws match the view's.
std::vector<float> ViewOf(const std::vector<float>& image,
                          const ImageGeometry& g, uint64_t seed) {
  const float sentinel = -7.0f;
  std::vector<float> view(image.size() + 4, sentinel);
  util::Rng rng(seed);
  augment::SimSiamView(image.data(), g, &rng, view.data());
  for (size_t i = image.size(); i < view.size(); ++i) {
    EXPECT_EQ(view[i], sentinel) << "view wrote past its end at " << i;
  }
  EXPECT_EQ(rng.SerializeState(), DrawChoices(g, seed).state);
  view.resize(image.size());
  return view;
}

std::vector<float> RampImage(const ImageGeometry& g) {
  std::vector<float> image(g.Pixels());
  for (size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<float>(i + 1) / image.size();
  }
  return image;
}

TEST(HorizontalFlip, ReversesRowsWhenTriggered) {
  // The unshifted crop and the flip, and no step that changes values.
  ImageGeometry g{1, 2, 3};
  std::vector<float> image = {1, 2, 3, 4, 5, 6};
  uint64_t seed = FindSeed(g, [](const Choices& c) {
    return c.off_i == 1 && c.off_j == 1 && c.flip && !c.jitter && !c.blur;
  });
  EXPECT_EQ(ViewOf(image, g, seed), (std::vector<float>{3, 2, 1, 6, 5, 4}));
}

TEST(HorizontalFlip, IsInvolution) {
  ImageGeometry g{2, 4, 4};
  std::vector<float> image = RampImage(g);
  uint64_t seed = FindSeed(g, [](const Choices& c) {
    return c.off_i == 1 && c.off_j == 1 && c.flip && !c.jitter && !c.gray &&
           !c.blur;
  });
  std::vector<float> once = ViewOf(image, g, seed);
  EXPECT_NE(once, image);
  EXPECT_EQ(ViewOf(once, g, seed), image);
}

TEST(RandomCrop, PreservesShapeAndShifts) {
  // Every offset of the padded crop, with no other step acting: the view is
  // the image shifted by (1 - off_i, 1 - off_j), zero where it reads the
  // padding.
  ImageGeometry g{1, 4, 4};
  std::vector<float> image = RampImage(g);
  for (int64_t off_i = 0; off_i <= 2; ++off_i) {
    for (int64_t off_j = 0; off_j <= 2; ++off_j) {
      SCOPED_TRACE("offset " + std::to_string(off_i) + "," +
                   std::to_string(off_j));
      uint64_t seed = FindSeed(g, [&](const Choices& c) {
        return c.off_i == off_i && c.off_j == off_j && !c.flip &&
               !c.jitter && !c.blur;
      });
      std::vector<float> view = ViewOf(image, g, seed);
      for (int64_t i = 0; i < g.height; ++i) {
        for (int64_t j = 0; j < g.width; ++j) {
          int64_t si = i + off_i - 1;
          int64_t sj = j + off_j - 1;
          bool inside = si >= 0 && si < g.height && sj >= 0 && sj < g.width;
          EXPECT_EQ(view[i * g.width + j],
                    inside ? image[si * g.width + sj] : 0.0f);
        }
      }
    }
  }
}

TEST(RandomGrayscale, EqualizesChannels) {
  ImageGeometry g{3, 2, 2};
  std::vector<float> image(12);
  util::Rng pixels(1);
  for (float& v : image) v = pixels.Uniform();
  int checked = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    if (!DrawChoices(g, seed).gray) continue;
    std::vector<float> view = ViewOf(image, g, seed);
    for (int64_t i = 0; i < 4; ++i) {
      EXPECT_FLOAT_EQ(view[i], view[4 + i]);
      EXPECT_FLOAT_EQ(view[i], view[8 + i]);
    }
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(GaussianBlur, PreservesMeanAndReducesVariance) {
  // The unshifted crop (the flip moves neither statistic) and the blur.
  ImageGeometry g{1, 8, 8};
  util::Rng pixels(2);
  std::vector<float> image(64);
  for (float& v : image) v = pixels.Uniform();
  const auto moments = [](const std::vector<float>& x) {
    double mean = 0.0, var = 0.0;
    for (float v : x) mean += v;
    mean /= x.size();
    for (float v : x) var += (v - mean) * (v - mean);
    return std::make_pair(mean, var);
  };
  const auto [mean_before, var_before] = moments(image);
  int checked = 0;
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    const Choices c = DrawChoices(g, seed);
    if (c.off_i != 1 || c.off_j != 1 || c.jitter || !c.blur) continue;
    const auto [mean_after, var_after] = moments(ViewOf(image, g, seed));
    EXPECT_NEAR(mean_after, mean_before, 0.05) << "seed " << seed;
    EXPECT_LT(var_after, var_before) << "seed " << seed;
    ++checked;
  }
  EXPECT_GE(checked, 5);
}

TEST(ColorJitter, StaysInRange) {
  // Pixels past both clamp bounds; the blur is left out since its weights
  // sum to 1 only up to rounding.
  ImageGeometry g{3, 4, 4};
  util::Rng pixels(3);
  std::vector<float> image(g.Pixels());
  for (float& v : image) v = pixels.Uniform(-0.5f, 1.5f);
  int checked = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    const Choices c = DrawChoices(g, seed);
    if (!c.jitter || c.blur) continue;
    for (float v : ViewOf(image, g, seed)) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
    }
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(ImagePipeline, TwoViewsDiffer) {
  data::SyntheticImageConfig config;
  config.num_classes = 2;
  config.train_per_class = 4;
  config.test_per_class = 2;
  config.geometry = {3, 4, 4};
  config.latent_dim = 4;
  config.seed = 5;
  data::SyntheticImagePair pair = MakeSyntheticImageData(config);
  util::Rng rng(6);
  tensor::Tensor v1 = augment::AugmentView(pair.train, {0, 1, 2}, &rng);
  tensor::Tensor v2 = augment::AugmentView(pair.train, {0, 1, 2}, &rng);
  EXPECT_EQ(v1.shape(), v2.shape());
  EXPECT_NE(v1.data(), v2.data());
}

TEST(ImagePipeline, DeterministicGivenSeed) {
  data::SyntheticImageConfig config;
  config.num_classes = 2;
  config.train_per_class = 3;
  config.geometry = {3, 4, 4};
  config.latent_dim = 4;
  config.seed = 7;
  data::SyntheticImagePair pair = MakeSyntheticImageData(config);
  util::Rng rng_a(42), rng_b(42);
  tensor::Tensor va = augment::AugmentView(pair.train, {0, 1}, &rng_a);
  tensor::Tensor vb = augment::AugmentView(pair.train, {0, 1}, &rng_b);
  EXPECT_EQ(va.data(), vb.data());
}

TEST(TabularCorruption, RateZeroIsIdentity) {
  data::SyntheticTabularConfig config;
  config.seed = 8;
  data::SyntheticTabularPair pair = MakeSyntheticTabularData(config);
  augment::TabularCorruption corruption(0.0f);
  util::Rng rng(9);
  tensor::Tensor view = corruption.AugmentView(pair.train, {0, 1}, &rng);
  for (int64_t j = 0; j < pair.train.dim(); ++j) {
    EXPECT_FLOAT_EQ(view.at(0, j), pair.train.Row(0)[j]);
  }
}

TEST(TabularCorruption, ValuesComeFromMarginals) {
  // With rate 1, every feature is replaced by some value observed for that
  // feature elsewhere in the dataset.
  data::SyntheticTabularConfig config;
  config.train_size = 50;
  config.seed = 10;
  data::SyntheticTabularPair pair = MakeSyntheticTabularData(config);
  augment::TabularCorruption corruption(1.0f);
  util::Rng rng(11);
  tensor::Tensor view = corruption.AugmentView(pair.train, {3}, &rng);
  for (int64_t j = 0; j < pair.train.dim(); ++j) {
    bool found = false;
    for (int64_t i = 0; i < pair.train.size() && !found; ++i) {
      found = pair.train.Row(i)[j] == view.at(0, j);
    }
    EXPECT_TRUE(found) << "feature " << j << " not from the marginal";
  }
}

TEST(TabularCorruption, PartialRateChangesSomeFeatures) {
  data::SyntheticTabularConfig config;
  config.train_size = 100;
  config.num_features = 40;
  config.seed = 12;
  data::SyntheticTabularPair pair = MakeSyntheticTabularData(config);
  augment::TabularCorruption corruption(0.3f);
  util::Rng rng(13);
  tensor::Tensor view = corruption.AugmentView(pair.train, {0}, &rng);
  int64_t changed = 0;
  for (int64_t j = 0; j < pair.train.dim(); ++j) {
    if (view.at(0, j) != pair.train.Row(0)[j]) ++changed;
  }
  EXPECT_GT(changed, 2);
  EXPECT_LT(changed, 30);
}

TEST(ViewProvider, DispatchesOnModality) {
  data::SyntheticImageConfig img_config;
  img_config.num_classes = 2;
  img_config.train_per_class = 2;
  img_config.geometry = {3, 4, 4};
  img_config.latent_dim = 4;
  img_config.seed = 14;
  auto img = MakeSyntheticImageData(img_config);
  data::SyntheticTabularConfig tab_config;
  tab_config.seed = 15;
  auto tab = MakeSyntheticTabularData(tab_config);

  auto img_provider = augment::ViewProvider::ForDataset(img.train);
  auto tab_provider = augment::ViewProvider::ForDataset(tab.train);
  util::Rng rng(16);
  EXPECT_EQ(img_provider->View(img.train, {0}, &rng).shape()[1],
            img.train.dim());
  EXPECT_EQ(tab_provider->View(tab.train, {0}, &rng).shape()[1],
            tab.train.dim());
}

}  // namespace
}  // namespace edsr
