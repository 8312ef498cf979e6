// Tensor: a contiguous row-major float nd-array with reverse-mode autograd.
//
// Design notes
//  * The engine is layered (see DESIGN.md "Tensor engine architecture"):
//      Storage   — refcounted value buffer (storage.h); tensors alias it
//                  instead of copying (Detach).
//      kernels   — every raw float loop (kernels.h); ops/optim/linalg
//                  route through it.
//      GradMode  — thread-local autograd switch (grad_mode.h); MakeOp builds
//                  no graph under NoGradGuard.
//  * Values are immutable after construction (all ops are functional and
//    return fresh tensors), so computation graphs can be replayed safely and
//    storage aliasing is unobservable. mutable_data() is for leaf tensors
//    (parameters/buffers) only.
//  * A Tensor is a cheap shared handle; the payload lives in TensorImpl.
//  * Autograd is tape-free: every op records its parent handles and a
//    backward closure on the output impl. Tensor::Backward() topologically
//    sorts the reachable subgraph and runs closures in reverse order,
//    accumulating into each impl's grad buffer. When grad mode is off or no
//    parent requires grad, no parents/closures/grad buffers materialize.
//  * Shapes use int64_t; invariant violations abort via EDSR_CHECK (this is
//    the engine's hot path; fallible user input is validated before here).
#ifndef EDSR_SRC_TENSOR_TENSOR_H_
#define EDSR_SRC_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/tensor/grad_mode.h"
#include "src/tensor/storage.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace edsr::tensor {

using Shape = std::vector<int64_t>;

int64_t NumElements(const Shape& shape);
std::string ShapeToString(const Shape& shape);

struct TensorImpl {
  // Value buffer; may be shared with other impls (Detach/Reshape aliases).
  StoragePtr storage;
  Shape shape;
  // Gradient buffer; sized lazily on first accumulation. Never aliased.
  // Acquired from and recycled into the arena vector pool so steady-state
  // training reuses grad buffers instead of reallocating them.
  std::vector<float> grad;
  bool requires_grad = false;
  // Autograd graph edges. backward_fn reads this node's grad and
  // accumulates into the parents' grads.
  std::vector<std::shared_ptr<TensorImpl>> parents;
  std::function<void(TensorImpl&)> backward_fn;

  ~TensorImpl() { arena::RecycleVector(std::move(grad)); }

  const std::vector<float>& data() const { return storage->values(); }
  std::vector<float>& data() { return storage->values(); }
  int64_t numel() const { return storage->size(); }
  void EnsureGrad() {
    if (static_cast<int64_t>(grad.size()) != numel()) {
      arena::RecycleVector(std::move(grad));
      grad = arena::AcquireZeroedVector(numel());
    }
  }
};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  // ---- Factories -----------------------------------------------------
  static Tensor Zeros(const Shape& shape, bool requires_grad = false);
  static Tensor Ones(const Shape& shape, bool requires_grad = false);
  static Tensor Full(const Shape& shape, float value,
                     bool requires_grad = false);
  static Tensor FromVector(std::vector<float> values, const Shape& shape,
                           bool requires_grad = false);
  static Tensor Scalar(float value, bool requires_grad = false);
  // Gaussian / uniform initializers.
  static Tensor Randn(const Shape& shape, util::Rng* rng, float mean = 0.0f,
                      float stddev = 1.0f, bool requires_grad = false);
  static Tensor Rand(const Shape& shape, util::Rng* rng, float lo = 0.0f,
                     float hi = 1.0f, bool requires_grad = false);

  // ---- Introspection --------------------------------------------------
  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const { return impl()->shape; }
  int64_t dim() const { return static_cast<int64_t>(shape().size()); }
  int64_t numel() const { return impl()->numel(); }
  // size(-1) is the last dimension, as in PyTorch.
  int64_t size(int64_t axis) const;
  bool requires_grad() const { return impl()->requires_grad; }

  const std::vector<float>& data() const { return impl()->data(); }
  std::vector<float>& mutable_data() { return impl()->data(); }
  const std::vector<float>& grad() const { return impl()->grad; }
  std::vector<float>& mutable_grad() {
    impl()->EnsureGrad();
    return impl()->grad;
  }

  // The underlying buffer (alias inspection: tensors sharing a storage
  // pointer share values).
  const StoragePtr& storage() const { return impl()->storage; }

  // Scalar extraction; requires numel() == 1.
  float item() const;
  // Element access by flat index (debug/test convenience).
  float at(int64_t flat_index) const;
  // Element access by (row, col) for 2-D tensors.
  float at(int64_t row, int64_t col) const;

  // ---- Autograd --------------------------------------------------------
  // Runs reverse-mode differentiation from this (scalar) tensor.
  void Backward();
  // Detached view: aliases the storage buffer but drops graph and grad flow.
  Tensor Detach() const;
  void ZeroGrad();

  const std::shared_ptr<TensorImpl>& impl_ptr() const { return impl_; }
  TensorImpl* impl() const {
    EDSR_CHECK(impl_ != nullptr) << "use of undefined Tensor";
    return impl_.get();
  }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

// Creates an output tensor wired into the autograd graph. `parents` are the
// inputs; `backward_fn` runs when gradients flow back. The output requires
// grad iff grad mode is enabled and any parent requires grad; otherwise no
// parents or closure are recorded.
Tensor MakeOp(std::vector<float> data, Shape shape,
              const std::vector<Tensor>& parents,
              std::function<void(TensorImpl&)> backward_fn);

}  // namespace edsr::tensor

#endif  // EDSR_SRC_TENSOR_TENSOR_H_
