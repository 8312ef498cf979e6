// Differentiable tensor operations.
//
// All ops are functional: they allocate a fresh output tensor and (when any
// input requires grad) register a backward closure that accumulates into the
// inputs' grad buffers. Binary arithmetic follows NumPy broadcasting rules
// (shapes are right-aligned; size-1 dimensions stretch).
#ifndef EDSR_SRC_TENSOR_OPS_H_
#define EDSR_SRC_TENSOR_OPS_H_

#include "src/tensor/tensor.h"

namespace edsr::tensor {

// ---- Elementwise binary (broadcasting) -------------------------------
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

inline Tensor operator+(const Tensor& a, const Tensor& b) { return Add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return Sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return Mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return Div(a, b); }

// Scalar arithmetic (broadcast of a 1-element tensor).
inline Tensor operator+(const Tensor& a, float s) {
  return Add(a, Tensor::Scalar(s));
}
inline Tensor operator-(const Tensor& a, float s) {
  return Sub(a, Tensor::Scalar(s));
}
inline Tensor operator*(const Tensor& a, float s) {
  return Mul(a, Tensor::Scalar(s));
}
inline Tensor operator/(const Tensor& a, float s) {
  return Div(a, Tensor::Scalar(s));
}
inline Tensor operator*(float s, const Tensor& a) { return a * s; }
inline Tensor operator+(float s, const Tensor& a) { return a + s; }

// ---- Elementwise unary ------------------------------------------------
Tensor Relu(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Square(const Tensor& a);

// ---- Linear algebra ----------------------------------------------------
// 2-D matrix product: (m,k) x (k,n) -> (m,n). Raw GEMM lives in
// kernels::Gemm (kernels.h).
Tensor MatMul(const Tensor& a, const Tensor& b);
// 2-D transpose.
Tensor Transpose(const Tensor& a);

// ---- Reductions ----------------------------------------------------------
Tensor SumAll(const Tensor& a);
Tensor MeanAll(const Tensor& a);
// Reduce along one axis. keepdims retains the axis with size 1.
Tensor Sum(const Tensor& a, int64_t axis, bool keepdims = false);
Tensor Mean(const Tensor& a, int64_t axis, bool keepdims = false);

// ---- Fused layers ----------------------------------------------------------
// Batch normalization of an (n, f) input over its rows:
//   y = (h - mean) / sqrt(var + eps) * gamma + beta
// with gamma and beta holding f elements each.
// Training (batch_mean and batch_var set): mean and biased variance come
// from the batch (n > 0) and are also written there (f floats each) for the
// caller's running statistics. Eval: `mean` and `var` (f elements each) are
// read at the call; no gradient flows to them.
struct BatchNormArgs {
  Tensor gamma;
  Tensor beta;
  float eps = 1e-5f;
  Tensor mean;
  Tensor var;
  float* batch_mean = nullptr;
  float* batch_var = nullptr;
};

// One Mlp layer as one autograd node:
//   y = Relu(BatchNorm(x · weight + bias))
// with x (n, k), weight (k, f) and bias (f); `bn` may be null (no
// normalization) and `relu` false (no ReLU). Without weight and bias the
// node normalizes x itself (bn required). Values and gradients are
// bit-identical to the composite MatMul, Add, the batch normalization
//   (h - mean) / Sqrt(var + eps) * gamma + beta
// spelled with Mean, Sub, Square, Add, Sqrt, Div and Mul, and Relu
// (DESIGN.md §4b): the node only replaces its graph of up to 15 nodes with
// one. Under NoGradGuard it saves nothing for a backward.
Tensor FusedLayer(const Tensor& x, const Tensor& weight, const Tensor& bias,
                  const BatchNormArgs* bn, bool relu);

// -mean_i cos(a_i, b_i) over the rows of two (n, d) tensors, n > 0, as one
// autograd node: the value and a's gradient are bit-identical to
// MeanAll(CosineSimilarityRows(a, b, eps)) * -1. `b` is a constant target:
// it may not require grad while grad mode is on (checked).
Tensor NegativeCosineMean(const Tensor& a, const Tensor& b, float eps = 1e-8f);

// ---- Composites used across the library ---------------------------------
// Rows scaled to unit L2 norm: x / sqrt(sum(x^2) + eps). 2-D input.
Tensor L2NormalizeRows(const Tensor& a, float eps = 1e-8f);
// Per-row cosine similarity of two (n,d) tensors -> (n,1).
Tensor CosineSimilarityRows(const Tensor& a, const Tensor& b,
                            float eps = 1e-8f);

}  // namespace edsr::tensor

#endif  // EDSR_SRC_TENSOR_OPS_H_
