#include "src/tensor/tensor.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace edsr::tensor {

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    EDSR_CHECK_GE(d, 0) << "negative dimension in shape";
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape[i];
  }
  out << "]";
  return out.str();
}

namespace {
std::shared_ptr<TensorImpl> NewImpl(StoragePtr storage, Shape shape,
                                    bool requires_grad) {
  EDSR_CHECK(storage != nullptr);
  EDSR_CHECK_EQ(storage->size(), NumElements(shape))
      << "data size does not match shape " << ShapeToString(shape);
  auto impl = std::make_shared<TensorImpl>();
  impl->storage = std::move(storage);
  impl->shape = std::move(shape);
  impl->requires_grad = requires_grad;
  return impl;
}
}  // namespace

Tensor Tensor::Zeros(const Shape& shape, bool requires_grad) {
  return Full(shape, 0.0f, requires_grad);
}

Tensor Tensor::Ones(const Shape& shape, bool requires_grad) {
  return Full(shape, 1.0f, requires_grad);
}

Tensor Tensor::Full(const Shape& shape, float value, bool requires_grad) {
  return Tensor(
      NewImpl(MakeStorage(NumElements(shape), value), shape, requires_grad));
}

Tensor Tensor::FromVector(std::vector<float> values, const Shape& shape,
                          bool requires_grad) {
  return Tensor(NewImpl(MakeStorage(std::move(values)), shape, requires_grad));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromVector({value}, {1}, requires_grad);
}

Tensor Tensor::Randn(const Shape& shape, util::Rng* rng, float mean,
                     float stddev, bool requires_grad) {
  EDSR_CHECK(rng != nullptr);
  std::vector<float> data(NumElements(shape));
  for (float& v : data) v = rng->Normal(mean, stddev);
  return FromVector(std::move(data), shape, requires_grad);
}

Tensor Tensor::Rand(const Shape& shape, util::Rng* rng, float lo, float hi,
                    bool requires_grad) {
  EDSR_CHECK(rng != nullptr);
  std::vector<float> data(NumElements(shape));
  for (float& v : data) v = rng->Uniform(lo, hi);
  return FromVector(std::move(data), shape, requires_grad);
}

int64_t Tensor::size(int64_t axis) const {
  int64_t nd = dim();
  if (axis < 0) axis += nd;
  EDSR_CHECK(axis >= 0 && axis < nd)
      << "axis " << axis << " out of range for " << ShapeToString(shape());
  return shape()[axis];
}

float Tensor::item() const {
  EDSR_CHECK_EQ(numel(), 1) << "item() requires a single-element tensor";
  return impl()->data()[0];
}

float Tensor::at(int64_t flat_index) const {
  EDSR_CHECK(flat_index >= 0 && flat_index < numel());
  return impl()->data()[flat_index];
}

float Tensor::at(int64_t row, int64_t col) const {
  EDSR_CHECK_EQ(dim(), 2);
  EDSR_CHECK(row >= 0 && row < shape()[0]);
  EDSR_CHECK(col >= 0 && col < shape()[1]);
  return impl()->data()[row * shape()[1] + col];
}

void Tensor::Backward() {
  TensorImpl* root = impl();
  EDSR_CHECK_EQ(root->numel(), 1)
      << "Backward() must start from a scalar loss";
  EDSR_CHECK(root->requires_grad)
      << "Backward() on a tensor that does not require grad";

  // Topological order over the reachable graph (iterative DFS).
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  struct Frame {
    TensorImpl* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0});
  visited.insert(root);
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      TensorImpl* parent = frame.node->parents[frame.next_parent++].get();
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }

  root->EnsureGrad();
  root->grad[0] += 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn) {
      node->EnsureGrad();
      node->backward_fn(*node);
    }
  }
}

Tensor Tensor::Detach() const {
  // Aliases the storage: values are immutable after construction, so sharing
  // the buffer is unobservable and saves the copy on every teacher forward.
  auto detached = std::make_shared<TensorImpl>();
  detached->storage = impl()->storage;
  detached->shape = impl()->shape;
  detached->requires_grad = false;
  return Tensor(std::move(detached));
}

void Tensor::ZeroGrad() {
  auto& g = impl()->grad;
  std::fill(g.begin(), g.end(), 0.0f);
}

Tensor MakeOp(std::vector<float> data, Shape shape,
              const std::vector<Tensor>& parents,
              std::function<void(TensorImpl&)> backward_fn) {
  StoragePtr storage = MakeStorage(std::move(data));
  bool requires_grad = false;
  if (GradMode::IsEnabled()) {
    for (const Tensor& p : parents) {
      if (p.requires_grad()) requires_grad = true;
    }
  }
  auto impl = std::make_shared<TensorImpl>();
  impl->storage = std::move(storage);
  impl->shape = std::move(shape);
  EDSR_CHECK_EQ(impl->numel(), NumElements(impl->shape));
  impl->requires_grad = requires_grad;
  if (requires_grad) {
    // Only now do graph edges, the closure, and (lazily) grad buffers
    // materialize; inference under NoGradGuard skips all of it.
    for (const Tensor& p : parents) impl->parents.push_back(p.impl_ptr());
    impl->backward_fn = std::move(backward_fn);
    internal::CountAutogradNode();
  }
  return Tensor(std::move(impl));
}

}  // namespace edsr::tensor
