// Storage: the refcounted value buffer underneath TensorImpl.
//
// Decoupling the bytes from the shape/graph metadata lets tensors alias one
// buffer instead of copying it: Detach() shares storage with its source. Refcounting is the shared_ptr holding the Storage; a buffer dies when
// the last tensor (or graph closure) referencing it does.
//
// Values are immutable after construction by engine convention (tensor.h),
// so aliasing never changes observable results; mutable_data() is reserved
// for leaf tensors (parameters, buffers) that are never aliased.
//
// When the last reference dies, the buffer is parked in the thread-local
// scratch arena's vector pool (arena.h) instead of hitting the heap, so
// steady-state training steps recycle storage instead of reallocating it.
#ifndef EDSR_SRC_TENSOR_STORAGE_H_
#define EDSR_SRC_TENSOR_STORAGE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/tensor/arena.h"

namespace edsr::tensor {

class Storage {
 public:
  Storage() = default;
  explicit Storage(std::vector<float> values) : values_(std::move(values)) {}
  Storage(int64_t numel, float fill)
      : values_(static_cast<size_t>(numel), fill) {}
  ~Storage() { arena::RecycleVector(std::move(values_)); }
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  int64_t size() const { return static_cast<int64_t>(values_.size()); }
  const std::vector<float>& values() const { return values_; }
  std::vector<float>& values() { return values_; }
  const float* data() const { return values_.data(); }
  float* data() { return values_.data(); }

 private:
  std::vector<float> values_;
};

using StoragePtr = std::shared_ptr<Storage>;

inline StoragePtr MakeStorage(std::vector<float> values) {
  return std::make_shared<Storage>(std::move(values));
}
inline StoragePtr MakeStorage(int64_t numel, float fill = 0.0f) {
  std::vector<float> values = arena::AcquireVector(numel);
  std::fill(values.begin(), values.end(), fill);
  return std::make_shared<Storage>(std::move(values));
}

}  // namespace edsr::tensor

#endif  // EDSR_SRC_TENSOR_STORAGE_H_
