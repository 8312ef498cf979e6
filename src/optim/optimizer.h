// First-order optimizers.
//
// The paper trains image models with SGD (momentum) and tabular models with
// Adam; both are provided, plus global gradient-norm clipping.
#ifndef EDSR_SRC_OPTIM_OPTIMIZER_H_
#define EDSR_SRC_OPTIM_OPTIMIZER_H_

#include <string>
#include <vector>

#include "src/io/serialize.h"
#include "src/tensor/tensor.h"
#include "src/util/status.h"

namespace edsr::optim {

class Optimizer {
 public:
  explicit Optimizer(std::vector<tensor::Tensor> parameters, float lr);
  virtual ~Optimizer() = default;

  // Applies one update from the accumulated gradients.
  virtual void Step() = 0;
  void ZeroGrad();

  // Stable tag identifying the update rule ("sgd", "adam") — checkpoints
  // refuse to restore moments across optimizer kinds.
  virtual std::string kind() const = 0;

  // Exact internal-state round-trip (lr + per-parameter moment buffers).
  // Deserialize validates the payload against the live parameter list
  // (kind, count, per-tensor sizes) and stages the moment buffers before
  // swapping any in; mismatch or truncation returns a Status.
  virtual void Serialize(io::BufferWriter* out) const;
  virtual util::Status Deserialize(io::BufferReader* in);

  float lr() const { return lr_; }
  size_t num_parameters() const { return parameters_.size(); }

 protected:
  // Reads a list of per-parameter buffers, validating that the count and
  // every buffer size match `parameters_` before assigning to `out`.
  util::Status ReadMoments(io::BufferReader* in,
                           std::vector<std::vector<float>>* out) const;
  void WriteMoments(io::BufferWriter* out,
                    const std::vector<std::vector<float>>& moments) const;

  std::vector<tensor::Tensor> parameters_;
  float lr_;
};

struct SgdOptions {
  float lr = 0.03f;
  float momentum = 0.9f;
  float weight_decay = 0.0f;
};

class Sgd : public Optimizer {
 public:
  Sgd(std::vector<tensor::Tensor> parameters, const SgdOptions& options);
  void Step() override;
  std::string kind() const override { return "sgd"; }
  void Serialize(io::BufferWriter* out) const override;
  util::Status Deserialize(io::BufferReader* in) override;

 private:
  SgdOptions options_;
  std::vector<std::vector<float>> velocity_;
};

struct AdamOptions {
  float lr = 1e-3f;
};

class Adam : public Optimizer {
 public:
  Adam(std::vector<tensor::Tensor> parameters, const AdamOptions& options);
  void Step() override;
  std::string kind() const override { return "adam"; }
  void Serialize(io::BufferWriter* out) const override;
  util::Status Deserialize(io::BufferReader* in) override;

 private:
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  int64_t t_ = 0;
};

// Scales gradients so their global L2 norm is at most max_norm.
// Returns the pre-clip norm.
double ClipGradNorm(const std::vector<tensor::Tensor>& parameters,
                    double max_norm);

}  // namespace edsr::optim

#endif  // EDSR_SRC_OPTIM_OPTIMIZER_H_
