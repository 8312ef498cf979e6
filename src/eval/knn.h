// KNN classifier on frozen representations — the paper's evaluation protocol
// (§IV-A5, following Wu et al.'s instance discrimination): cosine-similarity
// weighted voting, no extra trainable parameters.
#ifndef EDSR_SRC_EVAL_KNN_H_
#define EDSR_SRC_EVAL_KNN_H_

#include <vector>

#include "src/eval/representations.h"

namespace edsr::eval {

struct KnnOptions {
  int64_t k = 20;
  // Softmax temperature for similarity weighting (Wu et al. use 0.07).
  float temperature = 0.1f;
  int64_t num_classes = 0;  // required
};

class KnnClassifier {
 public:
  // Every label must lie in [0, options.num_classes) (checked): the vote
  // indexes a table of num_classes entries by label.
  KnnClassifier(RepresentationMatrix bank, std::vector<int64_t> labels,
                const KnnOptions& options);

  // Predicted class for one L2-normalizable representation row.
  int64_t Predict(const float* representation) const;

  // Fraction of rows whose prediction matches the label.
  double Evaluate(const RepresentationMatrix& queries,
                  const std::vector<int64_t>& labels) const;

  int64_t bank_size() const { return bank_n_; }

 private:
  // What one query's vote works in: the k most similar bank rows so far
  // (similarities descending, with their labels) and one vote per class.
  // Carved from the calling thread's arena once per Predict call or
  // Evaluate chunk, inside the caller's arena::Scope, and reused by every
  // query of it, so a query makes no heap allocation.
  struct VoteScratch {
    float* sims;
    int64_t* labels;
    double* votes;
  };
  VoteScratch AllocVoteScratch() const;

  // Exponentially weighted top-k vote over one row of squared distances to
  // the bank. One pass turns each distance into the cosine 1 - 0.5 d
  // (both rows are unit-norm) and keeps the k most similar rows sorted; a
  // row enters only when strictly more similar than the current k-th, so
  // equal similarities rank by lower bank row. Shared by Predict and the
  // batched Evaluate path.
  int64_t VoteTopK(const float* dist, const VoteScratch& scratch) const;

  // Every query scores against the bank as prepared at construction: its
  // rows L2-normalized, then stored transposed (d x n) for the GEMM to read
  // in place, with their squared norms (kernels::PairwiseSqDistToBank).
  int64_t bank_n_;
  int64_t bank_d_;
  std::vector<float> bank_t_;
  std::vector<float> bank_sq_;
  std::vector<int64_t> labels_;
  KnnOptions options_;
};

}  // namespace edsr::eval

#endif  // EDSR_SRC_EVAL_KNN_H_
