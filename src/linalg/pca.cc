#include "src/linalg/pca.h"

#include <cmath>

#include "src/linalg/eigen.h"
#include "src/tensor/kernels.h"
#include "src/util/check.h"

namespace edsr::linalg {

Pca Pca::Fit(const std::vector<float>& rows, int64_t n, int64_t d,
             int64_t num_components, bool center) {
  EDSR_CHECK_GT(n, 0);
  EDSR_CHECK_GT(d, 0);
  EDSR_CHECK_EQ(static_cast<int64_t>(rows.size()), n * d);
  if (num_components <= 0 || num_components > d) num_components = d;

  Pca pca;
  pca.dim_ = d;
  pca.num_components_ = num_components;
  pca.mean_.assign(d, 0.0f);
  if (center) {
    tensor::kernels::ColMean(rows.data(), n, d, pca.mean_.data());
  }

  std::vector<float> cov =
      center ? CovarianceCentered(rows, n, d) : CovarianceGram(rows, n, d);
  EigenDecomposition eig = SymmetricEigen(cov, d);

  pca.components_.resize(num_components * d);
  pca.variance_.resize(num_components);
  for (int64_t j = 0; j < num_components; ++j) {
    pca.variance_[j] = std::max(0.0f, eig.eigenvalues[j]);
    std::vector<float> v = eig.Eigenvector(j);
    for (int64_t i = 0; i < d; ++i) pca.components_[j * d + i] = v[i];
  }
  return pca;
}

std::vector<float> Pca::Component(int64_t j) const {
  EDSR_CHECK(j >= 0 && j < num_components_);
  return std::vector<float>(components_.begin() + j * dim_,
                            components_.begin() + (j + 1) * dim_);
}

std::vector<float> Pca::Project(const float* x) const {
  std::vector<float> centered(dim_);
  tensor::kernels::Map2(dim_, x, mean_.data(), centered.data(),
                        [](auto xi, auto mi) { return xi - mi; });
  // coords (k x 1) = components (k x d) * centered (d x 1)
  std::vector<float> coords(num_components_, 0.0f);
  tensor::kernels::Gemm(components_.data(), centered.data(), coords.data(),
                        num_components_, dim_, 1, /*trans_a=*/false,
                        /*trans_b=*/false, /*accumulate=*/false);
  return coords;
}

double Pca::LeverageScore(const float* x) const {
  std::vector<float> coords = Project(x);
  return tensor::kernels::SumSquares(
      static_cast<int64_t>(coords.size()), coords.data());
}

}  // namespace edsr::linalg
