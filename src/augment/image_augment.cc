#include "src/augment/image_augment.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/arena.h"
#include "src/tensor/kernels.h"
#include "src/util/check.h"

namespace edsr::augment {

namespace {

using data::ImageGeometry;
using tensor::kernels::ForColumns;
using tensor::kernels::Load;
using tensor::kernels::Splat;
using tensor::kernels::Store;

constexpr int64_t kCropPadding = 1;
constexpr float kFlipProbability = 0.5f;
constexpr float kJitterStrength = 0.4f;
constexpr float kJitterProbability = 0.8f;
constexpr float kGrayProbability = 0.2f;
constexpr float kBlurSigmaMin = 0.3f;
constexpr float kBlurSigmaMax = 1.0f;
constexpr float kBlurProbability = 0.3f;
// max(1, int(2 sigma)) for sigma <= kBlurSigmaMax.
constexpr int64_t kMaxBlurRadius = 2;

// std::clamp(v, 0, 1), which is min(max(v, 0), 1), lane by lane: NaN and -0
// pass through unchanged.
template <typename T>
T Clamp01(T v) {
  const T zero = Splat<T>(0.0f);
  const T one = Splat<T>(1.0f);
  const T low = v < zero ? zero : v;
  return one < low ? one : low;
}

// Zero-pads `image` by kCropPadding, crops H x W at (off_i, off_j) and, when
// `flip`, reverses each row: one gather into `view`.
void CropAndFlip(const float* image, const ImageGeometry& g, int64_t off_i,
                 int64_t off_j, bool flip, float* view) {
  const int64_t h = g.height;
  const int64_t w = g.width;
  for (int64_t c = 0; c < g.channels; ++c) {
    for (int64_t i = 0; i < h; ++i) {
      float* out = view + (c * h + i) * w;
      const int64_t si = i + off_i - kCropPadding;
      if (si < 0 || si >= h) {
        std::fill(out, out + w, 0.0f);
        continue;
      }
      const float* row = image + (c * h + si) * w;
      for (int64_t j = 0; j < w; ++j) {
        const int64_t sj = (flip ? w - 1 - j : j) + off_j - kCropPadding;
        out[j] = sj >= 0 && sj < w ? row[sj] : 0.0f;
      }
    }
  }
}

// Contrast pivots around the plane's mean, summed in pixel order.
void JitterPlane(int64_t area, float brightness, float contrast, float scale,
                 float* plane) {
  float mean = 0.0f;
  for (int64_t i = 0; i < area; ++i) mean += plane[i];
  mean /= static_cast<float>(area);
  ForColumns(area, [&]<typename T>(int64_t i, T) {
    Store(plane + i, Clamp01((Load<T>(plane + i) - mean) * contrast * scale +
                             mean + brightness));
  });
}

// Every channel becomes the per-pixel mean of the channels, summed in
// channel order.
void Grayscale(const ImageGeometry& g, float* view) {
  const int64_t area = g.height * g.width;
  ForColumns(area, [&]<typename T>(int64_t i, T) {
    T mean = Splat<T>(0.0f);
    for (int64_t c = 0; c < g.channels; ++c) {
      mean = mean + Load<T>(view + c * area + i);
    }
    mean = mean / static_cast<float>(g.channels);
    for (int64_t c = 0; c < g.channels; ++c) Store(view + c * area + i, mean);
  });
}

// Separable Gaussian blur, rows then columns, each output summed over its
// taps from the lowest index up; taps past a border read the border pixel.
void Blur(const ImageGeometry& g, float sigma, float* view) {
  const int64_t radius =
      std::max<int64_t>(1, static_cast<int64_t>(2.0f * sigma));
  EDSR_CHECK_LE(radius, kMaxBlurRadius);
  const int64_t taps = 2 * radius + 1;
  float kernel[2 * kMaxBlurRadius + 1];
  float total = 0.0f;
  for (int64_t k = -radius; k <= radius; ++k) {
    const float v = std::exp(-0.5f * (k * k) / (sigma * sigma));
    kernel[k + radius] = v;
    total += v;
  }
  for (int64_t t = 0; t < taps; ++t) kernel[t] /= total;

  const int64_t h = g.height;
  const int64_t w = g.width;
  tensor::arena::Scope scope;
  float* tmp = tensor::arena::AllocFloats(h * w);
  for (int64_t c = 0; c < g.channels; ++c) {
    float* plane = view + c * h * w;
    // Rows: the columns whose taps all lie inside the row take lanes.
    for (int64_t i = 0; i < h; ++i) {
      const float* row = plane + i * w;
      float* out = tmp + i * w;
      const auto border = [&](int64_t j) {
        float acc = 0.0f;
        for (int64_t k = -radius; k <= radius; ++k) {
          acc += kernel[k + radius] * row[std::clamp<int64_t>(j + k, 0, w - 1)];
        }
        out[j] = acc;
      };
      const int64_t left = std::min(radius, w);
      const int64_t right = std::max(left, w - radius);
      for (int64_t j = 0; j < left; ++j) border(j);
      ForColumns(right - left, [&]<typename T>(int64_t j, T) {
        const float* src = row + left + j - radius;
        T acc = Splat<T>(0.0f);
        for (int64_t t = 0; t < taps; ++t) {
          acc = acc + kernel[t] * Load<T>(src + t);
        }
        Store(out + left + j, acc);
      });
      for (int64_t j = right; j < w; ++j) border(j);
    }
    // Columns: each output row reads whole rows of tmp.
    for (int64_t i = 0; i < h; ++i) {
      const float* rows[2 * kMaxBlurRadius + 1];
      for (int64_t k = -radius; k <= radius; ++k) {
        rows[k + radius] = tmp + std::clamp<int64_t>(i + k, 0, h - 1) * w;
      }
      float* out = plane + i * w;
      ForColumns(w, [&]<typename T>(int64_t j, T) {
        T acc = Splat<T>(0.0f);
        for (int64_t t = 0; t < taps; ++t) {
          acc = acc + kernel[t] * Load<T>(rows[t] + j);
        }
        Store(out + j, acc);
      });
    }
  }
}

}  // namespace

void SimSiamView(const float* image, const ImageGeometry& g, util::Rng* rng,
                 float* view) {
  const int64_t off_i = rng->UniformInt(0, 2 * kCropPadding);
  const int64_t off_j = rng->UniformInt(0, 2 * kCropPadding);
  const bool flip = rng->Bernoulli(kFlipProbability);
  CropAndFlip(image, g, off_i, off_j, flip, view);
  if (rng->Bernoulli(kJitterProbability)) {
    const float brightness = rng->Uniform(-kJitterStrength, kJitterStrength);
    const float contrast =
        rng->Uniform(1.0f - kJitterStrength, 1.0f + kJitterStrength);
    const int64_t area = g.height * g.width;
    for (int64_t c = 0; c < g.channels; ++c) {
      const float scale =
          rng->Uniform(1.0f - kJitterStrength, 1.0f + kJitterStrength);
      JitterPlane(area, brightness, contrast, scale, view + c * area);
    }
  }
  if (g.channels >= 2 && rng->Bernoulli(kGrayProbability)) Grayscale(g, view);
  if (rng->Bernoulli(kBlurProbability)) {
    Blur(g, rng->Uniform(kBlurSigmaMin, kBlurSigmaMax), view);
  }
}

tensor::Tensor AugmentView(const data::Dataset& dataset,
                           const std::vector<int64_t>& indices,
                           util::Rng* rng) {
  EDSR_CHECK(dataset.is_image()) << "AugmentView requires image data";
  const int64_t dim = dataset.dim();
  std::vector<float> batch(indices.size() * dim);
  for (size_t k = 0; k < indices.size(); ++k) {
    SimSiamView(dataset.Row(indices[k]), dataset.geometry(), rng,
                batch.data() + k * dim);
  }
  return tensor::Tensor::FromVector(
      std::move(batch), {static_cast<int64_t>(indices.size()), dim});
}

}  // namespace edsr::augment
