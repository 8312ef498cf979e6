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

// ---- Normalization -------------------------------------------------------
// Batch normalization over the rows of an (n, d) input as one autograd node:
//   y = (x - mean) / sqrt(var + eps) * gamma + beta
// with gamma and beta holding d elements each. Values and gradients are
// bit-identical to that expression spelled with the ops above (Mean, Sub,
// Square, Add, Sqrt, Div, Mul; DESIGN.md §4b); the node only replaces its
// graph of up to 12 nodes with one.
//
// Training: mean and biased variance come from the batch (n > 0) and are
// also written to batch_mean / batch_var (d floats each) for the caller's
// running statistics.
Tensor BatchNormTrain(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                      float eps, float* batch_mean, float* batch_var);
// Eval: normalizes with the given statistics (d elements each), read at the
// call; no gradient flows to them.
Tensor BatchNormEval(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                     const Tensor& mean, const Tensor& var, float eps);

// ---- Composites used across the library ---------------------------------
// Rows scaled to unit L2 norm: x / sqrt(sum(x^2) + eps). 2-D input.
Tensor L2NormalizeRows(const Tensor& a, float eps = 1e-8f);
// Per-row cosine similarity of two (n,d) tensors -> (n,1).
Tensor CosineSimilarityRows(const Tensor& a, const Tensor& b,
                            float eps = 1e-8f);

}  // namespace edsr::tensor

#endif  // EDSR_SRC_TENSOR_OPS_H_
