#include "src/nn/module.h"

#include <cstdint>

namespace edsr::nn {

std::vector<tensor::Tensor> Module::Parameters() const {
  std::vector<tensor::Tensor> params;
  std::vector<NamedTensor> named;
  CollectState("", /*include_buffers=*/false, &named);
  params.reserve(named.size());
  for (const NamedTensor& nt : named) params.push_back(nt.value);
  return params;
}

std::vector<NamedTensor> Module::NamedState() const {
  std::vector<NamedTensor> named;
  CollectState("", /*include_buffers=*/true, &named);
  return named;
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (auto& [name, child] : children_) child->SetTraining(training);
}

void Module::SetRequiresGrad(bool requires_grad) {
  for (NamedTensor& p : parameters_) {
    p.value.impl()->requires_grad = requires_grad;
  }
  for (auto& [name, child] : children_) child->SetRequiresGrad(requires_grad);
}

void Module::ZeroGrad() {
  for (const tensor::Tensor& p : Parameters()) {
    const_cast<tensor::Tensor&>(p).ZeroGrad();
  }
}

void Module::CopyStateFrom(const Module& other) {
  std::vector<NamedTensor> mine = NamedState();
  std::vector<NamedTensor> theirs = other.NamedState();
  EDSR_CHECK_EQ(mine.size(), theirs.size())
      << "CopyStateFrom: structural mismatch";
  for (size_t i = 0; i < mine.size(); ++i) {
    EDSR_CHECK(mine[i].name == theirs[i].name)
        << "CopyStateFrom: name mismatch " << mine[i].name << " vs "
        << theirs[i].name;
    EDSR_CHECK(mine[i].value.shape() == theirs[i].value.shape())
        << "CopyStateFrom: shape mismatch for " << mine[i].name;
    mine[i].value.mutable_data() = theirs[i].value.data();
  }
}

// Per-entry record layout: u64 name length | name | u64 ndim | i64 dims |
// f32 data.
namespace {
// Sanity bound on serialized tensor rank; anything larger is corruption.
constexpr uint64_t kMaxStateRank = 64;
}  // namespace

void Module::SerializeState(io::BufferWriter* out) const {
  std::vector<NamedTensor> state = NamedState();
  out->WriteU64(state.size());
  for (const NamedTensor& nt : state) {
    out->WriteString(nt.name);
    out->WriteU64(nt.value.shape().size());
    for (int64_t d : nt.value.shape()) out->WriteI64(d);
    out->WriteBytes(nt.value.data().data(), nt.value.numel() * sizeof(float));
  }
}

util::Status Module::DeserializeState(io::BufferReader* in) {
  std::vector<NamedTensor> state = NamedState();
  uint64_t count = 0;
  EDSR_RETURN_NOT_OK(in->ReadU64(&count));
  if (count != state.size()) {
    return util::Status::InvalidArgument(
        "state entry count mismatch: module has " +
        std::to_string(state.size()) + ", payload has " +
        std::to_string(count));
  }
  // Stage everything first: no parameter is touched until the whole payload
  // has parsed and matched the module's structure, so a mid-payload mismatch
  // cannot leave the module half-loaded.
  std::vector<std::vector<float>> staged(state.size());
  for (size_t i = 0; i < state.size(); ++i) {
    const NamedTensor& nt = state[i];
    std::string name;
    EDSR_RETURN_NOT_OK(in->ReadString(&name));
    if (name != nt.name) {
      return util::Status::InvalidArgument("state name mismatch: expected " +
                                           nt.name + ", found " + name);
    }
    uint64_t ndim = 0;
    EDSR_RETURN_NOT_OK(in->ReadU64(&ndim));
    if (ndim > kMaxStateRank) {
      return util::Status::IoError("implausible tensor rank " +
                                   std::to_string(ndim) + " for " + nt.name);
    }
    tensor::Shape shape(ndim);
    for (uint64_t d = 0; d < ndim; ++d) {
      EDSR_RETURN_NOT_OK(in->ReadI64(&shape[d]));
    }
    if (shape != nt.value.shape()) {
      return util::Status::InvalidArgument("state shape mismatch for " +
                                           nt.name);
    }
    staged[i].resize(static_cast<size_t>(nt.value.numel()));
    EDSR_RETURN_NOT_OK(
        in->ReadBytes(staged[i].data(), staged[i].size() * sizeof(float)));
  }
  for (size_t i = 0; i < state.size(); ++i) {
    state[i].value.mutable_data() = std::move(staged[i]);
  }
  return util::Status::OK();
}

tensor::Tensor Module::RegisterParameter(const std::string& name,
                                         tensor::Tensor value) {
  value.impl()->requires_grad = true;
  parameters_.push_back({name, value});
  return value;
}

tensor::Tensor Module::RegisterBuffer(const std::string& name,
                                      tensor::Tensor value) {
  value.impl()->requires_grad = false;
  buffers_.push_back({name, value});
  return value;
}

void Module::RegisterModule(const std::string& name, Module* child) {
  EDSR_CHECK(child != nullptr);
  children_.emplace_back(name, child);
}

void Module::CollectState(const std::string& prefix, bool include_buffers,
                          std::vector<NamedTensor>* out) const {
  for (const NamedTensor& p : parameters_) {
    out->push_back({prefix + p.name, p.value});
  }
  if (include_buffers) {
    for (const NamedTensor& b : buffers_) {
      out->push_back({prefix + b.name, b.value});
    }
  }
  for (const auto& [name, child] : children_) {
    child->CollectState(prefix + name + ".", include_buffers, out);
  }
}

}  // namespace edsr::nn
