// Dataset: a dense feature matrix with *hidden* labels.
//
// The continual learner never sees labels — they exist solely for the KNN
// evaluation protocol (paper §IV-A5), mirroring how UCL papers train
// unsupervised but score with labeled test sets.
#ifndef EDSR_SRC_DATA_DATASET_H_
#define EDSR_SRC_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/tensor/tensor.h"

namespace edsr::data {

struct ImageGeometry {
  int64_t channels = 0;
  int64_t height = 0;
  int64_t width = 0;
  int64_t Pixels() const { return channels * height * width; }
};

class Dataset {
 public:
  Dataset() = default;
  Dataset(std::string name, std::vector<float> features,
          std::vector<int64_t> labels, int64_t dim, int64_t num_classes,
          ImageGeometry geometry = {});

  const std::string& name() const { return name_; }
  int64_t size() const { return static_cast<int64_t>(labels_.size()); }
  int64_t dim() const { return dim_; }
  int64_t num_classes() const { return num_classes_; }
  bool is_image() const { return geometry_.Pixels() > 0; }
  const ImageGeometry& geometry() const { return geometry_; }

  const float* Row(int64_t i) const;
  int64_t Label(int64_t i) const;
  const std::vector<float>& features() const { return features_; }
  const std::vector<int64_t>& labels() const { return labels_; }

  // Batch of rows as a (k, dim) tensor (copies).
  tensor::Tensor Gather(const std::vector<int64_t>& indices) const;

  // New dataset holding the given rows.
  Dataset Subset(const std::vector<int64_t>& indices,
                 const std::string& subset_name) const;
  // Indices of all samples whose label is in `classes`.
  std::vector<int64_t> IndicesOfClasses(
      const std::vector<int64_t>& classes) const;

 private:
  std::string name_;
  std::vector<float> features_;  // size() x dim_ row-major
  std::vector<int64_t> labels_;
  int64_t dim_ = 0;
  int64_t num_classes_ = 0;
  ImageGeometry geometry_;
};

}  // namespace edsr::data

#endif  // EDSR_SRC_DATA_DATASET_H_
