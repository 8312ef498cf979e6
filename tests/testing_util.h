// Shared test helpers: finite-difference gradient checking and bitwise
// comparison of float buffers.
#ifndef EDSR_TESTS_TESTING_UTIL_H_
#define EDSR_TESTS_TESTING_UTIL_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/tensor/tensor.h"

namespace edsr::testing {

// Random tensor with |values| in [margin, margin + span), random sign when
// `signed_values`. The margin keeps gradcheck inputs away from kinks and
// singularities (|x| at 0, Log/Sqrt near 0, Clamp bounds).
inline tensor::Tensor RandomTensor(const tensor::Shape& shape, util::Rng* rng,
                                   float margin = 0.2f, float span = 1.0f,
                                   bool signed_values = true,
                                   bool requires_grad = true) {
  std::vector<float> data(tensor::NumElements(shape));
  for (float& v : data) {
    v = margin + rng->Uniform(0.0f, span);
    if (signed_values && rng->Bernoulli(0.5f)) v = -v;
  }
  return tensor::Tensor::FromVector(std::move(data), shape, requires_grad);
}

// Checks the analytic gradient of `loss_fn` w.r.t. each listed input tensor
// against a central finite difference. `loss_fn` must rebuild the graph from
// the current input data on every call (inputs are perturbed in place).
inline void ExpectGradientsMatch(
    const std::function<tensor::Tensor()>& loss_fn,
    const std::vector<tensor::Tensor>& inputs, float eps = 1e-3f,
    float tol = 2e-2f) {
  // Analytic gradients.
  for (const tensor::Tensor& t : inputs) {
    const_cast<tensor::Tensor&>(t).ZeroGrad();
  }
  tensor::Tensor loss = loss_fn();
  loss.Backward();
  std::vector<std::vector<float>> analytic;
  analytic.reserve(inputs.size());
  for (const tensor::Tensor& t : inputs) {
    analytic.push_back(t.impl()->grad.empty()
                           ? std::vector<float>(t.numel(), 0.0f)
                           : t.impl()->grad);
  }

  // Numeric gradients, element by element.
  for (size_t ti = 0; ti < inputs.size(); ++ti) {
    tensor::Tensor t = inputs[ti];
    std::vector<float>& data = t.mutable_data();
    for (int64_t i = 0; i < t.numel(); ++i) {
      float saved = data[i];
      data[i] = saved + eps;
      float plus = loss_fn().item();
      data[i] = saved - eps;
      float minus = loss_fn().item();
      data[i] = saved;
      float numeric = (plus - minus) / (2.0f * eps);
      float ana = analytic[ti][i];
      float scale = std::max({1.0f, std::fabs(numeric), std::fabs(ana)});
      EXPECT_NEAR(ana, numeric, tol * scale)
          << "input " << ti << " element " << i;
    }
  }
}

inline uint32_t Bits(float v) {
  uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Bitwise equality after one normalization: every NaN becomes the same
// quiet NaN on both sides. When two NaNs meet, x86 returns the first
// operand's, and the compiler orders the operands of a float + or * as it
// likes (both commute), so which NaN payload survives is not a property of
// the source. Every other bit must match: finite values, signed zeros,
// infinities, and which elements are NaN.
inline void ExpectSameBits(const std::vector<float>& actual,
                           const std::vector<float>& expected,
                           const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  auto canonical = [](std::vector<float> v) {
    for (float& x : v) {
      if (std::isnan(x)) x = std::numeric_limits<float>::quiet_NaN();
    }
    return v;
  };
  const std::vector<float> lhs = canonical(actual);
  const std::vector<float> rhs = canonical(expected);
  if (rhs.empty() ||
      std::memcmp(lhs.data(), rhs.data(), rhs.size() * sizeof(float)) == 0) {
    return;
  }
  for (size_t i = 0; i < rhs.size(); ++i) {
    if (Bits(lhs[i]) != Bits(rhs[i])) {
      ADD_FAILURE() << what << " differs first at " << i << ": " << lhs[i]
                    << " (0x" << std::hex << Bits(lhs[i]) << ") vs "
                    << rhs[i] << " (0x" << Bits(rhs[i]) << ")";
      return;
    }
  }
}

}  // namespace edsr::testing

#endif  // EDSR_TESTS_TESTING_UTIL_H_
