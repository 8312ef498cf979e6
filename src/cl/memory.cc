#include "src/cl/memory.h"

#include <algorithm>

#include "src/util/check.h"

namespace edsr::cl {

MemoryBuffer::MemoryBuffer(int64_t per_task_budget)
    : per_task_budget_(per_task_budget) {
  EDSR_CHECK_GE(per_task_budget, 0);
}

void MemoryBuffer::AddIncrement(std::vector<MemoryEntry> entries) {
  EDSR_CHECK_LE(static_cast<int64_t>(entries.size()), per_task_budget_)
      << "increment exceeds the per-task memory budget";
  if (entries.empty()) return;
  int64_t task_id = entries.front().task_id;
  for (const MemoryEntry& e : entries) {
    EDSR_CHECK_EQ(e.task_id, task_id)
        << "AddIncrement entries must share a task id";
    EDSR_CHECK(!e.features.empty());
  }
  for (const MemoryEntry& existing : entries_) {
    EDSR_CHECK_NE(existing.task_id, task_id)
        << "increment " << task_id << " already stored";
  }
  for (MemoryEntry& e : entries) entries_.push_back(std::move(e));
}

const MemoryEntry& MemoryBuffer::entry(int64_t i) const {
  EDSR_CHECK(i >= 0 && i < size());
  return entries_[i];
}

tensor::Tensor MemoryBuffer::GatherFeatures(
    const std::vector<int64_t>& indices) const {
  EDSR_CHECK(!indices.empty());
  int64_t dim = static_cast<int64_t>(entry(indices[0]).features.size());
  std::vector<float> batch(indices.size() * dim);
  for (size_t k = 0; k < indices.size(); ++k) {
    const MemoryEntry& e = entry(indices[k]);
    EDSR_CHECK_EQ(static_cast<int64_t>(e.features.size()), dim)
        << "GatherFeatures requires homogeneous feature dims";
    std::copy(e.features.begin(), e.features.end(), batch.data() + k * dim);
  }
  return tensor::Tensor::FromVector(
      std::move(batch), {static_cast<int64_t>(indices.size()), dim});
}

void MemoryBuffer::Serialize(io::BufferWriter* out) const {
  out->WriteI64(per_task_budget_);
  out->WriteU64(entries_.size());
  for (const MemoryEntry& e : entries_) {
    out->WriteFloats(e.features);
    out->WriteI64(e.task_id);
    out->WriteI64(e.source_index);
    out->WriteI64(e.label);
    out->WriteFloats(e.noise_scale);
    out->WriteFloats(e.stored_output);
    out->WriteFloats(e.stored_representation);
  }
}

util::Result<MemoryBuffer> MemoryBuffer::Read(io::BufferReader* in) {
  int64_t budget = 0;
  EDSR_RETURN_NOT_OK(in->ReadI64(&budget));
  if (budget < 0) {
    return util::Status::IoError("negative memory budget " +
                                 std::to_string(budget));
  }
  uint64_t count = 0;
  EDSR_RETURN_NOT_OK(in->ReadU64(&count));
  MemoryBuffer memory(budget);
  memory.entries_.reserve(static_cast<size_t>(
      std::min<uint64_t>(count, in->remaining() / sizeof(int64_t))));
  for (uint64_t i = 0; i < count; ++i) {
    MemoryEntry e;
    EDSR_RETURN_NOT_OK(in->ReadFloats(&e.features));
    EDSR_RETURN_NOT_OK(in->ReadI64(&e.task_id));
    EDSR_RETURN_NOT_OK(in->ReadI64(&e.source_index));
    EDSR_RETURN_NOT_OK(in->ReadI64(&e.label));
    EDSR_RETURN_NOT_OK(in->ReadFloats(&e.noise_scale));
    EDSR_RETURN_NOT_OK(in->ReadFloats(&e.stored_output));
    EDSR_RETURN_NOT_OK(in->ReadFloats(&e.stored_representation));
    if (e.features.empty()) {
      return util::Status::IoError("memory entry " + std::to_string(i) +
                                   " has no features");
    }
    // GroupByTask indexes by task id.
    if (e.task_id < 0) {
      return util::Status::IoError("memory entry " + std::to_string(i) +
                                   " has negative task id " +
                                   std::to_string(e.task_id));
    }
    memory.entries_.push_back(std::move(e));
  }
  return memory;
}

util::Status MemoryBuffer::Deserialize(io::BufferReader* in) {
  util::Result<MemoryBuffer> read = Read(in);
  if (!read.ok()) return read.status();
  MemoryBuffer memory = std::move(read).ValueOrDie();
  if (memory.per_task_budget_ != per_task_budget_) {
    return util::Status::InvalidArgument(
        "memory budget mismatch: buffer has " +
        std::to_string(per_task_budget_) + ", payload has " +
        std::to_string(memory.per_task_budget_));
  }
  entries_ = std::move(memory.entries_);
  return util::Status::OK();
}

util::Status MemoryBuffer::CheckFits(const ssl::EncoderConfig& encoder) const {
  const std::vector<int64_t>& heads = encoder.input_head_dims;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const MemoryEntry& e = entries_[i];
    if (!heads.empty() &&
        (e.task_id < 0 || e.task_id >= static_cast<int64_t>(heads.size()))) {
      return util::Status::IoError(
          "memory entry " + std::to_string(i) + " has task id " +
          std::to_string(e.task_id) + ", but the encoder has " +
          std::to_string(heads.size()) + " input heads");
    }
    const int64_t width =
        heads.empty() ? encoder.mlp_dims.front() : heads[e.task_id];
    if (static_cast<int64_t>(e.features.size()) != width) {
      return util::Status::IoError(
          "memory entry " + std::to_string(i) + " has " +
          std::to_string(e.features.size()) +
          " features, the encoder expects " + std::to_string(width));
    }
  }
  return util::Status::OK();
}

std::vector<std::vector<int64_t>> MemoryBuffer::GroupByTask(
    const std::vector<int64_t>& indices) const {
  int64_t max_task = 0;
  for (int64_t i : indices) max_task = std::max(max_task, entry(i).task_id);
  std::vector<std::vector<int64_t>> groups(max_task + 1);
  for (int64_t i : indices) groups[entry(i).task_id].push_back(i);
  return groups;
}

}  // namespace edsr::cl
