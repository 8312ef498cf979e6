// Module: base class for neural-network components.
//
// A Module owns named parameters (trainable tensors), named buffers
// (non-trainable state such as batch-norm running statistics), and named
// child modules. The registry supports:
//   * Parameters()        — flat list for the optimizer;
//   * NamedState()        — parameters + buffers, for (de)serialization and
//                           teacher snapshots (CopyStateFrom);
//   * SetTraining()       — train/eval mode switching;
//   * SetRequiresGrad()   — freezing (e.g. the distillation teacher).
#ifndef EDSR_SRC_NN_MODULE_H_
#define EDSR_SRC_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "src/io/serialize.h"
#include "src/tensor/tensor.h"
#include "src/util/status.h"

namespace edsr::nn {

struct NamedTensor {
  std::string name;
  tensor::Tensor value;
};

class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  virtual tensor::Tensor Forward(const tensor::Tensor& input) = 0;

  // All trainable parameters, depth first.
  std::vector<tensor::Tensor> Parameters() const;
  // Parameters and buffers with dotted path names ("backbone.body.layer0.weight").
  std::vector<NamedTensor> NamedState() const;

  void SetTraining(bool training);
  bool training() const { return training_; }
  void SetRequiresGrad(bool requires_grad);
  void ZeroGrad();

  // Copies every parameter and buffer value from a structurally identical
  // module (used to snapshot the pre-increment teacher f~).
  void CopyStateFrom(const Module& other);

  // Binary round-trippable state, embedded in a larger checkpoint (run
  // snapshots serialize the encoder, teacher, and projectors this way).
  // DeserializeState validates every size against the bytes actually present
  // and stages the full state before mutating any parameter, so corrupt
  // input yields a Status and an untouched module.
  void SerializeState(io::BufferWriter* out) const;
  util::Status DeserializeState(io::BufferReader* in);

 protected:
  // Registration helpers; returns the stored handle.
  tensor::Tensor RegisterParameter(const std::string& name,
                                   tensor::Tensor value);
  tensor::Tensor RegisterBuffer(const std::string& name, tensor::Tensor value);
  void RegisterModule(const std::string& name, Module* child);

 private:
  void CollectState(const std::string& prefix, bool include_buffers,
                    std::vector<NamedTensor>* out) const;

  std::vector<NamedTensor> parameters_;
  std::vector<NamedTensor> buffers_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
};

}  // namespace edsr::nn

#endif  // EDSR_SRC_NN_MODULE_H_
