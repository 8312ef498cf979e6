// Contrastive self-supervised losses L_css (paper §II-A).
//
// A CsslLoss scores two batches of representations z1, z2 of the same inputs
// under different augmentations. It also exposes Align(student, target),
// the one-directional form used by CaSSLe-style distillation (Eq. 9) and by
// EDSR's noise-enhanced replay (Eq. 16): the target is treated as a constant
// (stop-gradient) prediction target.
#ifndef EDSR_SRC_SSL_LOSSES_H_
#define EDSR_SRC_SSL_LOSSES_H_

#include <memory>
#include <string>
#include <vector>

#include "src/nn/networks.h"
#include "src/tensor/tensor.h"

namespace edsr::ssl {

class CsslLoss {
 public:
  virtual ~CsslLoss() = default;

  // Symmetric two-view loss; z1/z2 are (n, d) representations. Returns a
  // scalar. Lower is better; both losses are bounded below.
  virtual tensor::Tensor Loss(const tensor::Tensor& z1,
                              const tensor::Tensor& z2) = 0;

  // Aligns `student` with the constant `target` (detached internally).
  virtual tensor::Tensor Align(const tensor::Tensor& student,
                               const tensor::Tensor& target) = 0;

  // Loss-owned trainable parameters (e.g. the SimSiam predictor head).
  virtual std::vector<tensor::Tensor> Parameters() = 0;
  virtual void SetTraining(bool training) = 0;
  virtual std::string name() const = 0;

  // The loss's stateful submodule for checkpointing (parameters *and*
  // buffers such as batch-norm running stats); nullptr when stateless.
  virtual nn::Module* module() { return nullptr; }
};

// SimSiam (Eq. 3): L = -1/2 [ cos(h(z1), sg(z2)) + cos(h(z2), sg(z1)) ],
// with a 2-layer MLP predictor h.
class SimSiamLoss : public CsslLoss {
 public:
  SimSiamLoss(int64_t representation_dim, int64_t predictor_hidden,
              util::Rng* rng);

  tensor::Tensor Loss(const tensor::Tensor& z1,
                      const tensor::Tensor& z2) override;
  tensor::Tensor Align(const tensor::Tensor& student,
                       const tensor::Tensor& target) override;
  std::vector<tensor::Tensor> Parameters() override;
  void SetTraining(bool training) override;
  std::string name() const override { return "simsiam"; }
  nn::Module* module() override { return predictor_.get(); }

  nn::Mlp* predictor() { return predictor_.get(); }

 private:
  std::unique_ptr<nn::Mlp> predictor_;
};

// Barlow Twins (Eq. 4): cross-correlation matrix of batch-standardized
// embeddings pushed toward identity.
class BarlowTwinsLoss : public CsslLoss {
 public:
  explicit BarlowTwinsLoss(float lambda = 5e-3f) : lambda_(lambda) {}

  tensor::Tensor Loss(const tensor::Tensor& z1,
                      const tensor::Tensor& z2) override;
  tensor::Tensor Align(const tensor::Tensor& student,
                       const tensor::Tensor& target) override;
  std::vector<tensor::Tensor> Parameters() override { return {}; }
  void SetTraining(bool) override {}
  std::string name() const override { return "barlowtwins"; }

 private:
  float lambda_;
};

// Mean negative cosine similarity: -mean_i cos(a_i, b_i), one autograd node
// (tensor::NegativeCosineMean). `b` is the constant target (pass it
// Detach()ed). The building block of both SimSiam terms, of Align and so of
// CaSSLe's L_dis and EDSR's L_rpl.
tensor::Tensor NegativeCosine(const tensor::Tensor& a, const tensor::Tensor& b);

enum class CsslLossKind { kSimSiam, kBarlowTwins };

std::unique_ptr<CsslLoss> MakeCsslLoss(CsslLossKind kind,
                                       int64_t representation_dim,
                                       util::Rng* rng);

}  // namespace edsr::ssl

#endif  // EDSR_SRC_SSL_LOSSES_H_
