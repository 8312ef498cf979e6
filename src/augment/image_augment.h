// Image augmentation: the SimSiam view of paper §IV-A5 ({crop,
// horizontalFlip, colorJitter, grayScale, gaussianBlur}).
//
// One function computes the whole view of one flat C x H x W float image,
// drawing all randomness from the caller's Rng, so runs stay reproducible.
#ifndef EDSR_SRC_AUGMENT_IMAGE_AUGMENT_H_
#define EDSR_SRC_AUGMENT_IMAGE_AUGMENT_H_

#include <vector>

#include "src/data/dataset.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace edsr::augment {

// Writes to `view` (C * H * W floats, not overlapping `image`) the SimSiam
// recipe applied to `image`, in this order:
//  * crop: zero-pad by 1, then crop back to H x W at an offset drawn from
//    {0, 1, 2} per axis;
//  * horizontal flip with probability 0.5;
//  * colour jitter with probability 0.8: brightness b from [-0.4, 0.4),
//    contrast k and, per channel, a scale s from [0.6, 1.4); each pixel
//    becomes clamp((v - mean) * k * s + mean + b, 0, 1), with the channel
//    mean taken after crop and flip;
//  * grayscale with probability 0.2 (C >= 2 only; no draw otherwise): every
//    channel becomes the per-pixel channel mean;
//  * Gaussian blur with probability 0.3: sigma from [0.3, 1.0), radius
//    max(1, int(2 sigma)), separable, borders clamped.
// Crop and flip are one gather. Draws are made in the order listed, and the
// float operations of each step are those of applying the steps one after
// another to the image in place; tests/augment_test.cc holds that
// composition as its reference.
void SimSiamView(const float* image, const data::ImageGeometry& geometry,
                 util::Rng* rng, float* view);

// One SimSiam view of each selected row: (k, dim) tensor.
tensor::Tensor AugmentView(const data::Dataset& dataset,
                           const std::vector<int64_t>& indices,
                           util::Rng* rng);

}  // namespace edsr::augment

#endif  // EDSR_SRC_AUGMENT_IMAGE_AUGMENT_H_
