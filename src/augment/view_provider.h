// ViewProvider: modality-agnostic augmented-view generation.
//
// Continual-learning strategies ask for augmented views of dataset rows
// without caring whether the data is image (the SimSiam view) or tabular
// (SCARF corruption).
#ifndef EDSR_SRC_AUGMENT_VIEW_PROVIDER_H_
#define EDSR_SRC_AUGMENT_VIEW_PROVIDER_H_

#include <memory>
#include <vector>

#include "src/augment/image_augment.h"
#include "src/augment/tabular_augment.h"
#include "src/data/dataset.h"

namespace edsr::augment {

class ViewProvider {
 public:
  virtual ~ViewProvider() = default;
  // One augmented view of the selected rows, as a (k, dim) tensor.
  virtual tensor::Tensor View(const data::Dataset& dataset,
                              const std::vector<int64_t>& indices,
                              util::Rng* rng) const = 0;

  // Picks the SimSiam view or tabular corruption based on the dataset.
  static std::unique_ptr<ViewProvider> ForDataset(const data::Dataset& dataset);
};

class ImageViewProvider : public ViewProvider {
 public:
  tensor::Tensor View(const data::Dataset& dataset,
                      const std::vector<int64_t>& indices,
                      util::Rng* rng) const override {
    return AugmentView(dataset, indices, rng);
  }
};

class TabularViewProvider : public ViewProvider {
 public:
  explicit TabularViewProvider(TabularCorruption corruption)
      : corruption_(corruption) {}

  tensor::Tensor View(const data::Dataset& dataset,
                      const std::vector<int64_t>& indices,
                      util::Rng* rng) const override {
    return corruption_.AugmentView(dataset, indices, rng);
  }

 private:
  TabularCorruption corruption_;
};

}  // namespace edsr::augment

#endif  // EDSR_SRC_AUGMENT_VIEW_PROVIDER_H_
