#include "src/ssl/losses.h"

#include "src/tensor/ops.h"

namespace edsr::ssl {

using tensor::Tensor;

Tensor NegativeCosine(const Tensor& a, const Tensor& b) {
  return tensor::NegativeCosineMean(a, b);
}

SimSiamLoss::SimSiamLoss(int64_t representation_dim, int64_t predictor_hidden,
                         util::Rng* rng) {
  predictor_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{representation_dim, predictor_hidden,
                           representation_dim},
      rng);
}

Tensor SimSiamLoss::Loss(const Tensor& z1, const Tensor& z2) {
  Tensor p1 = predictor_->Forward(z1);
  Tensor p2 = predictor_->Forward(z2);
  Tensor term1 = NegativeCosine(p1, z2.Detach());
  Tensor term2 = NegativeCosine(p2, z1.Detach());
  return (term1 + term2) * 0.5f;
}

Tensor SimSiamLoss::Align(const Tensor& student, const Tensor& target) {
  // CaSSLe's SimSiam distillation: the projected student representation
  // predicts the frozen target; no predictor head is applied here because
  // the distillation projector p_dis plays that role.
  return NegativeCosine(student, target.Detach());
}

std::vector<Tensor> SimSiamLoss::Parameters() {
  return predictor_->Parameters();
}

void SimSiamLoss::SetTraining(bool training) {
  predictor_->SetTraining(training);
}

namespace {
// Standardizes each dimension over the batch: zero mean, unit variance.
Tensor BatchStandardize(const Tensor& z) {
  Tensor mean = tensor::Mean(z, 0, /*keepdims=*/true);
  Tensor centered = z - mean;
  Tensor var = tensor::Mean(tensor::Square(centered), 0, /*keepdims=*/true);
  return centered / tensor::Sqrt(var + 1e-5f);
}
}  // namespace

Tensor BarlowTwinsLoss::Loss(const Tensor& z1, const Tensor& z2) {
  EDSR_CHECK(z1.shape() == z2.shape());
  int64_t n = z1.shape()[0];
  int64_t d = z1.shape()[1];
  EDSR_CHECK_GT(n, 1) << "BarlowTwins needs batch statistics";
  Tensor zn1 = BatchStandardize(z1);
  Tensor zn2 = BatchStandardize(z2);
  // Cross-correlation matrix C (d x d).
  Tensor c = tensor::MatMul(tensor::Transpose(zn1), zn2) *
             (1.0f / static_cast<float>(n));
  // Masks for the diagonal / off-diagonal terms.
  std::vector<float> eye_data(d * d, 0.0f);
  for (int64_t i = 0; i < d; ++i) eye_data[i * d + i] = 1.0f;
  Tensor eye = Tensor::FromVector(eye_data, {d, d});
  Tensor ones = Tensor::Ones({d, d});
  Tensor diag_term = tensor::SumAll(tensor::Square(c - eye) * eye);
  Tensor off_term = tensor::SumAll(tensor::Square(c) * (ones - eye));
  return diag_term + off_term * lambda_;
}

Tensor BarlowTwinsLoss::Align(const Tensor& student, const Tensor& target) {
  return Loss(student, target.Detach());
}

std::unique_ptr<CsslLoss> MakeCsslLoss(CsslLossKind kind,
                                       int64_t representation_dim,
                                       util::Rng* rng) {
  switch (kind) {
    case CsslLossKind::kSimSiam:
      return std::make_unique<SimSiamLoss>(representation_dim,
                                           representation_dim, rng);
    case CsslLossKind::kBarlowTwins:
      return std::make_unique<BarlowTwinsLoss>();
  }
  EDSR_CHECK(false) << "unknown CSSL loss kind";
  return nullptr;
}

}  // namespace edsr::ssl
