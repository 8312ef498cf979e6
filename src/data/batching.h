// Shuffled minibatch iteration.
#ifndef EDSR_SRC_DATA_BATCHING_H_
#define EDSR_SRC_DATA_BATCHING_H_

#include <vector>

#include "src/util/rng.h"

namespace edsr::data {

// Yields index batches covering [0, n) in a fresh random order per epoch.
// A final partial batch of one element is dropped (contrastive losses
// degenerate on tiny batches).
class BatchIterator {
 public:
  BatchIterator(int64_t n, int64_t batch_size, util::Rng* rng);

  // Starts a new epoch (reshuffles).
  void Reset();
  // Returns false when the epoch is exhausted.
  bool Next(std::vector<int64_t>* batch);

 private:
  int64_t n_;
  int64_t batch_size_;
  util::Rng* rng_;
  std::vector<int64_t> order_;
  int64_t cursor_ = 0;
};

}  // namespace edsr::data

#endif  // EDSR_SRC_DATA_BATCHING_H_
