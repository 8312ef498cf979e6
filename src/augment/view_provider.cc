#include "src/augment/view_provider.h"

namespace edsr::augment {

std::unique_ptr<ViewProvider> ViewProvider::ForDataset(
    const data::Dataset& dataset) {
  if (dataset.is_image()) {
    return std::make_unique<ImageViewProvider>();
  }
  return std::make_unique<TabularViewProvider>(TabularCorruption(0.3f));
}

}  // namespace edsr::augment
