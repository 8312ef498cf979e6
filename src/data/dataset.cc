#include "src/data/dataset.h"

#include "src/util/check.h"

namespace edsr::data {

Dataset::Dataset(std::string name, std::vector<float> features,
                 std::vector<int64_t> labels, int64_t dim,
                 int64_t num_classes, ImageGeometry geometry)
    : name_(std::move(name)),
      features_(std::move(features)),
      labels_(std::move(labels)),
      dim_(dim),
      num_classes_(num_classes),
      geometry_(geometry) {
  EDSR_CHECK_GT(dim_, 0);
  EDSR_CHECK_EQ(features_.size(), labels_.size() * static_cast<size_t>(dim_))
      << "feature matrix size mismatch for dataset " << name_;
  if (geometry_.Pixels() > 0) {
    EDSR_CHECK_EQ(geometry_.Pixels(), dim_)
        << "image geometry inconsistent with dim for dataset " << name_;
  }
  for (int64_t label : labels_) {
    EDSR_CHECK(label >= 0 && label < num_classes_)
        << "label " << label << " out of range in dataset " << name_;
  }
}

const float* Dataset::Row(int64_t i) const {
  EDSR_CHECK(i >= 0 && i < size());
  return features_.data() + i * dim_;
}

int64_t Dataset::Label(int64_t i) const {
  EDSR_CHECK(i >= 0 && i < size());
  return labels_[i];
}

tensor::Tensor Dataset::Gather(const std::vector<int64_t>& indices) const {
  std::vector<float> batch(indices.size() * dim_);
  for (size_t k = 0; k < indices.size(); ++k) {
    const float* row = Row(indices[k]);
    std::copy(row, row + dim_, batch.data() + k * dim_);
  }
  return tensor::Tensor::FromVector(
      std::move(batch), {static_cast<int64_t>(indices.size()), dim_});
}

Dataset Dataset::Subset(const std::vector<int64_t>& indices,
                        const std::string& subset_name) const {
  std::vector<float> features(indices.size() * dim_);
  std::vector<int64_t> labels(indices.size());
  for (size_t k = 0; k < indices.size(); ++k) {
    const float* row = Row(indices[k]);
    std::copy(row, row + dim_, features.data() + k * dim_);
    labels[k] = labels_[indices[k]];
  }
  return Dataset(subset_name, std::move(features), std::move(labels), dim_,
                 num_classes_, geometry_);
}

std::vector<int64_t> Dataset::IndicesOfClasses(
    const std::vector<int64_t>& classes) const {
  std::vector<bool> wanted(num_classes_, false);
  for (int64_t c : classes) {
    EDSR_CHECK(c >= 0 && c < num_classes_);
    wanted[c] = true;
  }
  std::vector<int64_t> indices;
  for (int64_t i = 0; i < size(); ++i) {
    if (wanted[labels_[i]]) indices.push_back(i);
  }
  return indices;
}

}  // namespace edsr::data
