// Synthetic data generators standing in for the paper's benchmarks.
//
// Images: each class owns a latent Gaussian prototype; samples draw a latent
// near the prototype and are rendered to C x H x W pixels through a fixed
// random two-layer nonlinear decoder plus pixel noise. Train and test splits
// share the decoder and prototypes (different sample draws), so class
// structure is discoverable without labels — the property class-incremental
// UCL experiments need.
//
// Tabular: binary "person-characteristic" classification with the paper's
// Table II feature dimensions and positive rates; positives/negatives are
// separated Gaussians with per-feature scale diversity.
#ifndef EDSR_SRC_DATA_SYNTHETIC_H_
#define EDSR_SRC_DATA_SYNTHETIC_H_

#include <string>

#include "src/data/dataset.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace edsr::data {

struct SyntheticImageConfig {
  std::string name = "synthetic";
  int64_t num_classes = 10;
  int64_t train_per_class = 40;
  int64_t test_per_class = 10;
  ImageGeometry geometry = {3, 8, 8};
  int64_t latent_dim = 12;
  // Distance between class prototypes (bigger = easier).
  float class_separation = 3.0f;
  // Within-class latent spread.
  float latent_noise = 0.8f;
  // Additive pixel noise after decoding.
  float pixel_noise = 0.05f;
  // Per-class rendering style: each class perturbs the shared decoder's
  // output weights by `style_strength` times a class-specific random matrix.
  // 0 disables. Nonzero values make features partially class-specific, which
  // is what creates representation interference (and hence forgetting) when
  // later increments repurpose the encoder's limited capacity — the analogue
  // of the domain/style diversity in CIFAR/DomainNet classes.
  float style_strength = 0.0f;
  uint64_t seed = 0;
};

struct SyntheticImagePair {
  Dataset train;
  Dataset test;
};

SyntheticImagePair MakeSyntheticImageData(const SyntheticImageConfig& config);

// Named presets mirroring the paper's image benchmarks (Table II) at
// single-core scale. `samples_scale` multiplies per-class sample counts.
// Class counts: SynthCifar10 = 10; SynthCifar100 / SynthTinyImageNet = 100
// (20 tasks x 5 classes); SynthDomainNet = 90 (15 tasks x 6 classes,
// scaled down from 345/23 — documented substitution).
SyntheticImageConfig SynthCifar10Config(uint64_t seed);
SyntheticImageConfig SynthCifar100Config(uint64_t seed);
SyntheticImageConfig SynthTinyImageNetConfig(uint64_t seed);
SyntheticImageConfig SynthDomainNetConfig(uint64_t seed);

// String-keyed lookup over the image presets above, so stream specs (and any
// other text-configured driver) can name a preset the way selector specs name
// a selector. `ImagePresetNames()` is the canonical ordering; unknown names
// fail with InvalidArgument listing every valid preset.
std::vector<std::string> ImagePresetNames();
util::Result<SyntheticImageConfig> ImagePresetConfig(const std::string& name,
                                                     uint64_t seed);

struct SyntheticTabularConfig {
  std::string name = "tabular";
  int64_t num_features = 16;
  int64_t train_size = 600;
  int64_t test_size = 150;
  float positive_rate = 0.2f;
  // Separation between the positive and negative class means.
  float class_separation = 1.6f;
  uint64_t seed = 0;
};

struct SyntheticTabularPair {
  Dataset train;
  Dataset test;
};

SyntheticTabularPair MakeSyntheticTabularData(
    const SyntheticTabularConfig& config);

// The five tabular presets from Table II: name, #features, positive rate.
//   Bank 16 / 11.70%, Shoppers 17 / 15.47%, Income 14 / 24.08%,
//   BlastChar 20 / 26.54%, Shrutime 10 / 20.37%.
std::vector<SyntheticTabularConfig> TabularBenchmarkConfigs(uint64_t seed);

}  // namespace edsr::data

#endif  // EDSR_SRC_DATA_SYNTHETIC_H_
