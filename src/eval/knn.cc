#include "src/eval/knn.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <utility>

#include "src/obs/trace.h"
#include "src/tensor/arena.h"
#include "src/tensor/kernels.h"
#include "src/util/check.h"
#include "src/util/threadpool.h"

namespace edsr::eval {

namespace {

// Evaluate scores its queries in blocks of about this many distances
// (1 MiB), so a block's tile is still in cache when its rows vote.
constexpr int64_t kTileFloats = 1 << 18;

void NormalizeRows(RepresentationMatrix* m) {
  for (int64_t i = 0; i < m->n; ++i) {
    tensor::kernels::NormalizeL2(m->d, m->values.data() + i * m->d);
  }
}

}  // namespace

KnnClassifier::KnnClassifier(RepresentationMatrix bank,
                             std::vector<int64_t> labels,
                             const KnnOptions& options)
    : bank_n_(bank.n),
      bank_d_(bank.d),
      labels_(std::move(labels)),
      options_(options) {
  EDSR_CHECK_EQ(bank_n_, static_cast<int64_t>(labels_.size()));
  EDSR_CHECK_GT(bank_n_, 0);
  EDSR_CHECK_GT(options_.num_classes, 0) << "KnnOptions.num_classes required";
  EDSR_CHECK_GT(options_.k, 0);
  for (int64_t label : labels_) {
    EDSR_CHECK(label >= 0 && label < options_.num_classes)
        << "kNN bank label " << label << " outside [0, "
        << options_.num_classes << ")";
  }
  NormalizeRows(&bank);
  bank_sq_.resize(bank_n_);
  tensor::kernels::BankSqNorms(bank.values.data(), bank_n_, bank_d_,
                               bank_sq_.data());
  bank_t_.resize(bank_n_ * bank_d_);
  tensor::kernels::Transpose2d(bank.values.data(), bank_n_, bank_d_,
                               bank_t_.data());
}

KnnClassifier::VoteScratch KnnClassifier::AllocVoteScratch() const {
  const int64_t k = std::min(options_.k, bank_n_);
  return {tensor::arena::AllocFloats(k), tensor::arena::AllocInt64(k),
          tensor::arena::AllocDoubles(options_.num_classes)};
}

int64_t KnnClassifier::VoteTopK(const float* dist,
                                const VoteScratch& scratch) const {
  const int64_t n = bank_n_;
  const int64_t k = std::min(options_.k, n);
  float* sims = scratch.sims;
  int64_t* top = scratch.labels;
  // Puts bank row j into slot i and moves each strictly less similar entry
  // above it down one, so j lands after every entry as similar as it is.
  auto insert = [&](int64_t i, float sim, int64_t j) {
    for (; i > 0 && sims[i - 1] < sim; --i) {
      sims[i] = sims[i - 1];
      top[i] = top[i - 1];
    }
    sims[i] = sim;
    top[i] = labels_[j];
  };
  // Rows less similar than `bound` cannot be among the k most similar: k
  // other rows are at least as similar. So only rows at or above it fill
  // the buffer (sim > below <=> sim >= bound), in bank-row order, and from
  // then on a row enters only when strictly more similar than the k-th; the
  // kernel skips the rows that cannot. The result is the same top k as a
  // pass over every row. Without a bound the first k rows fill it.
  const float bound = tensor::kernels::KthCosineLowerBound(n, dist, k);
  const float below =
      std::nextafter(bound, -std::numeric_limits<float>::infinity());
  int64_t filled = 0;
  int64_t j = 0;
  if (bound == -std::numeric_limits<float>::infinity()) {
    for (; filled < k; ++j) insert(filled++, 1.0f - 0.5f * dist[j], j);
  }
  for (;; ++j) {
    j += tensor::kernels::FirstCosineAbove(n - j, dist + j,
                                           filled < k ? below : sims[k - 1]);
    if (j == n) break;
    insert(filled < k ? filled++ : k - 1, 1.0f - 0.5f * dist[j], j);
  }
  // Holds because both kernels round 1 - 0.5 d alike; the vote below reads
  // all k slots.
  EDSR_CHECK_EQ(filled, k);

  // Exponentially weighted vote among the top-k, most similar first.
  double* votes = scratch.votes;
  std::fill(votes, votes + options_.num_classes, 0.0);
  for (int64_t i = 0; i < k; ++i) {
    votes[top[i]] += std::exp(sims[i] / options_.temperature);
  }
  return static_cast<int64_t>(
      std::max_element(votes, votes + options_.num_classes) - votes);
}

int64_t KnnClassifier::Predict(const float* representation) const {
  tensor::arena::Scope scope;
  float* q = tensor::arena::AllocFloats(bank_d_);
  std::copy(representation, representation + bank_d_, q);
  tensor::kernels::NormalizeL2(bank_d_, q);
  float* dist = tensor::arena::AllocFloats(bank_n_);
  tensor::kernels::PairwiseSqDistToBank(q, 1, bank_t_.data(),
                                        bank_sq_.data(), bank_n_, bank_d_,
                                        dist);
  return VoteTopK(dist, AllocVoteScratch());
}

double KnnClassifier::Evaluate(const RepresentationMatrix& queries,
                               const std::vector<int64_t>& labels) const {
  EDSR_TRACE_SPAN("knn_eval");
  EDSR_CHECK_EQ(queries.n, static_cast<int64_t>(labels.size()));
  EDSR_CHECK_EQ(queries.d, bank_d_);
  EDSR_CHECK_GT(queries.n, 0);

  // Normalize a copy of the queries, then score them against the whole bank
  // with the GEMM-backed pairwise pass, one block of queries at a time. Each
  // distance is one GEMM chain whatever the block, so the distances are the
  // same bits as in one pass over every query.
  RepresentationMatrix normed = queries;
  NormalizeRows(&normed);
  const int64_t block = std::max<int64_t>(1, kTileFloats / bank_n_);
  // The blocks fan out over the pool; each row votes independently and the
  // correct-count is an integer sum, so the result is identical at every
  // thread count.
  std::atomic<int64_t> correct{0};
  util::ParallelFor(0, queries.n, block, [&](int64_t i0, int64_t i1) {
    tensor::arena::Scope scope;
    const VoteScratch scratch = AllocVoteScratch();
    float* dist =
        tensor::arena::AllocFloats(std::min(block, i1 - i0) * bank_n_);
    int64_t local = 0;
    for (int64_t b0 = i0; b0 < i1; b0 += block) {
      const int64_t rows = std::min(block, i1 - b0);
      tensor::kernels::PairwiseSqDistToBank(
          normed.values.data() + b0 * bank_d_, rows, bank_t_.data(),
          bank_sq_.data(), bank_n_, bank_d_, dist);
      for (int64_t r = 0; r < rows; ++r) {
        if (VoteTopK(dist + r * bank_n_, scratch) == labels[b0 + r]) ++local;
      }
    }
    correct.fetch_add(local, std::memory_order_relaxed);
  });
  return static_cast<double>(correct.load()) /
         static_cast<double>(queries.n);
}

}  // namespace edsr::eval
