// Weight initialization schemes.
#ifndef EDSR_SRC_NN_INIT_H_
#define EDSR_SRC_NN_INIT_H_

#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace edsr::nn {

// He/Kaiming uniform: U(-b, b) with b = sqrt(6 / fan_in). Standard for
// ReLU networks.
tensor::Tensor KaimingUniform(const tensor::Shape& shape, int64_t fan_in,
                              util::Rng* rng);

}  // namespace edsr::nn

#endif  // EDSR_SRC_NN_INIT_H_
