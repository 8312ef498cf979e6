// EDSR — Effective Data Selection and Replay (the paper's contribution).
//
// EDSR = CaSSLe's distillation on new data (stability for the just-learned
// space) + a bounded memory filled by entropy-based selection (§III-A) +
// noise-enhanced distillation replay of that memory (§III-B):
//
//   L = Σ_{x^n} L_css(z1ⁿ, z2ⁿ)
//     + Σ_{x^n} ½ (L_dis(z1ⁿ, z̃1ⁿ) + L_dis(z2ⁿ, z̃2ⁿ))
//     + Σ_{x^m} ½  L_rpl(z1ᵐ, z̃1ᵐ | r(xᵐ))                  (§III-C)
//
//   L_rpl(z, z̃ | r) = L_css(p_dis(z), sg(z̃ + r ⊙ σ)),  σ ~ N(0, I)  (Eq. 16)
//
// Selection stage (after training on X^n): representations of X^n are
// extracted un-augmented, the selector keeps the `memory_per_task` samples
// maximizing Tr(Cov(f̂(M))) (Eq. 15), and r(x^m) is computed from each kept
// sample's k nearest neighbours (Fig. 6 hyper-parameter).
//
// ReplayLossMode reproduces the Table IV ablation: replay the memory with
// plain L_css, with L_dis (no noise), or with the full L_rpl.
#ifndef EDSR_SRC_CORE_EDSR_H_
#define EDSR_SRC_CORE_EDSR_H_

#include <memory>
#include <string>

#include "src/cl/cassle.h"
#include "src/cl/memory.h"
#include "src/cl/retrieval.h"
#include "src/cl/selection.h"

namespace edsr::core {

enum class ReplayLossMode {
  kNone,  // degenerates to CaSSLe
  kCss,   // replay via the raw contrastive loss (over-fits; Table IV)
  kDis,   // distillation replay without noise
  kRpl,   // noise-enhanced distillation replay (full EDSR)
};

struct EdsrOptions {
  ReplayLossMode replay_mode = ReplayLossMode::kRpl;
  // k for the kNN noise magnitude r(x^m); 0 makes kRpl behave like kDis.
  int64_t noise_neighbors = 10;
};

class Edsr : public cl::Cassle {
 public:
  // Selector and retrieval policy from the context's registry specs
  // (defaults: high-entropy selection, uniform retrieval). Invalid specs
  // abort at construction; validate via SelectorRegistry/RetrievalRegistry::
  // Create first for a clean error.
  Edsr(const cl::StrategyContext& context, const EdsrOptions& options = {});
  // Custom selector instance (Table V's selection ablation).
  Edsr(const cl::StrategyContext& context, const EdsrOptions& options,
       std::unique_ptr<cl::DataSelector> selector, std::string name);

  const cl::MemoryBuffer& memory() const { return memory_; }
  const cl::DataSelector& selector() const { return *selector_; }

 protected:
  tensor::Tensor ComputeBatchLoss(const data::Task& task,
                                  const std::vector<int64_t>& indices,
                                  const tensor::Tensor& view1,
                                  const tensor::Tensor& view2) override;
  void OnIncrementEnd(const data::Task& task) override;
  // The selected memory {M^i} with its per-sample r(x^m) noise scales — the
  // selection *is* the experiment, so resume must restore the stored
  // entries, never re-select them.
  cl::MemoryBuffer* ReplayBuffer() override { return &memory_; }
  // CaSSLe's teacher/projector, then the selector and retrieval-policy
  // state.
  void SaveExtra(io::BufferWriter* out) const override;
  util::Status LoadExtra(io::BufferReader* in) override;

 private:
  // The Σ_{x^m} ½ L_rpl term; undefined tensor when replay is inactive.
  tensor::Tensor ReplayLoss(const data::Task& task);
  // One memory group (single task id, homogeneous dims) through the chosen
  // replay loss.
  tensor::Tensor GroupReplayLoss(const data::Task& task,
                                 const std::vector<int64_t>& entry_indices);

  EdsrOptions options_;
  std::unique_ptr<cl::DataSelector> selector_;
  std::unique_ptr<cl::RetrievalPolicy> retrieval_;
  cl::MemoryBuffer memory_;
};

}  // namespace edsr::core

#endif  // EDSR_SRC_CORE_EDSR_H_
