#include "src/nn/init.h"

#include <cmath>

namespace edsr::nn {

tensor::Tensor KaimingUniform(const tensor::Shape& shape, int64_t fan_in,
                              util::Rng* rng) {
  EDSR_CHECK_GT(fan_in, 0);
  float bound = std::sqrt(6.0f / static_cast<float>(fan_in));
  return tensor::Tensor::Rand(shape, rng, -bound, bound);
}

}  // namespace edsr::nn
