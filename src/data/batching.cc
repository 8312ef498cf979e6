#include "src/data/batching.h"

#include <numeric>

#include "src/util/check.h"

namespace edsr::data {

BatchIterator::BatchIterator(int64_t n, int64_t batch_size, util::Rng* rng)
    : n_(n), batch_size_(batch_size), rng_(rng) {
  EDSR_CHECK_GT(n, 0);
  EDSR_CHECK_GT(batch_size, 0);
  EDSR_CHECK(rng != nullptr);
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0);
  Reset();
}

void BatchIterator::Reset() {
  rng_->Shuffle(&order_);
  cursor_ = 0;
}

bool BatchIterator::Next(std::vector<int64_t>* batch) {
  EDSR_CHECK(batch != nullptr);
  batch->clear();
  if (cursor_ >= n_) return false;
  constexpr int64_t kMinBatch = 2;
  int64_t remaining = n_ - cursor_;
  if (remaining < kMinBatch && cursor_ > 0) return false;  // drop tiny tail
  int64_t take = std::min(batch_size_, remaining);
  batch->assign(order_.begin() + cursor_, order_.begin() + cursor_ + take);
  cursor_ += take;
  return true;
}

}  // namespace edsr::data
