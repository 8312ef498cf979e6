#include "src/cl/selection.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

#include "src/linalg/pca.h"
#include "src/tensor/arena.h"
#include "src/tensor/kernels.h"
#include "src/util/check.h"

namespace edsr::cl {

namespace {

using eval::RepresentationMatrix;

// Indices of the `budget` largest scores.
std::vector<int64_t> TopK(const std::vector<double>& scores, int64_t budget) {
  std::vector<int64_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  int64_t k = std::min<int64_t>(budget, order.size());
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](int64_t a, int64_t b) { return scores[a] > scores[b]; });
  order.resize(k);
  return order;
}

const RepresentationMatrix& Reps(const SelectionContext& context) {
  EDSR_CHECK(context.representations != nullptr)
      << "SelectionContext.representations required";
  return *context.representations;
}

// k-means++ D^2 seeding over the representation rows.
std::vector<int64_t> DSquaredSeeding(const RepresentationMatrix& reps,
                                     int64_t budget, util::Rng* rng) {
  int64_t n = reps.n;
  int64_t k = std::min(budget, n);
  std::vector<int64_t> chosen;
  chosen.reserve(k);
  chosen.push_back(rng->UniformInt(0, n - 1));
  std::vector<double> min_dist(n, std::numeric_limits<double>::infinity());
  tensor::arena::Scope scope;
  float* dist = tensor::arena::AllocFloats(n);
  while (static_cast<int64_t>(chosen.size()) < k) {
    int64_t last = chosen.back();
    // Distances from the newest seed to every row in one GEMM-backed pass.
    tensor::kernels::PairwiseSqDist(reps.Row(last), 1, reps.values.data(), n,
                                    reps.d, dist);
    std::vector<float> weights(n);
    for (int64_t i = 0; i < n; ++i) {
      min_dist[i] = std::min(min_dist[i], static_cast<double>(dist[i]));
      weights[i] = static_cast<float>(min_dist[i]);
    }
    // PairwiseSqDist clamps at 0 but does not promise exact zeros for
    // identical rows; pin the seed itself so the duplicate-detection
    // fallback below keeps working.
    min_dist[last] = 0.0;
    weights[last] = 0.0f;
    // Already-chosen points have weight 0 and cannot be re-drawn.
    int64_t next = rng->Categorical(weights);
    if (min_dist[next] <= 0.0) {
      // Degenerate duplicates: fall back to the farthest point.
      next = static_cast<int64_t>(
          std::max_element(min_dist.begin(), min_dist.end()) -
          min_dist.begin());
      if (min_dist[next] <= 0.0) break;  // all points identical
    }
    chosen.push_back(next);
  }
  // Pad with random extras if the data collapsed to fewer distinct points.
  while (static_cast<int64_t>(chosen.size()) < k) {
    chosen.push_back(rng->UniformInt(0, n - 1));
  }
  return chosen;
}

struct KMeansResult {
  int64_t clusters = 0;
  std::vector<float> centroids;     // flat (clusters x d) for GEMM paths
  std::vector<int64_t> assignment;  // per sample
  const float* Centroid(int64_t c, int64_t d) const {
    return centroids.data() + c * d;
  }
};

KMeansResult LloydKMeans(const RepresentationMatrix& reps, int64_t clusters,
                         int64_t iterations, util::Rng* rng) {
  clusters = std::min(clusters, reps.n);
  std::vector<int64_t> seeds = DSquaredSeeding(reps, clusters, rng);
  KMeansResult result;
  result.clusters = clusters;
  result.centroids.resize(clusters * reps.d);
  for (int64_t c = 0; c < clusters; ++c) {
    const float* row = reps.Row(seeds[c]);
    std::copy(row, row + reps.d, result.centroids.begin() + c * reps.d);
  }
  result.assignment.assign(reps.n, 0);
  tensor::arena::Scope scope;
  float* dist = tensor::arena::AllocFloats(reps.n * clusters);
  std::vector<double> sums(clusters * reps.d);
  std::vector<int64_t> counts(clusters);
  for (int64_t iter = 0; iter < iterations; ++iter) {
    // Assign: all sample-to-centroid distances in one pairwise pass.
    tensor::kernels::PairwiseSqDist(reps.values.data(), reps.n,
                                    result.centroids.data(), clusters, reps.d,
                                    dist);
    for (int64_t i = 0; i < reps.n; ++i) {
      const float* row = dist + i * clusters;
      result.assignment[i] = static_cast<int64_t>(
          std::min_element(row, row + clusters) - row);
    }
    // Update.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (int64_t i = 0; i < reps.n; ++i) {
      int64_t c = result.assignment[i];
      ++counts[c];
      for (int64_t j = 0; j < reps.d; ++j) {
        sums[c * reps.d + j] += reps.Row(i)[j];
      }
    }
    for (int64_t c = 0; c < clusters; ++c) {
      if (counts[c] == 0) continue;  // empty cluster keeps its centroid
      for (int64_t j = 0; j < reps.d; ++j) {
        result.centroids[c * reps.d + j] = static_cast<float>(
            sums[c * reps.d + j] / static_cast<double>(counts[c]));
      }
    }
  }
  return result;
}

// Unit-normalized copy of an (n, d) matrix; all-zero rows stay zero.
std::vector<double> NormalizedRows(const RepresentationMatrix& m) {
  std::vector<double> rows(m.n * m.d);
  for (int64_t i = 0; i < m.n; ++i) {
    const float* src = m.Row(i);
    double norm_sq = 0.0;
    for (int64_t j = 0; j < m.d; ++j) {
      norm_sq += static_cast<double>(src[j]) * src[j];
    }
    double inv = norm_sq > 0.0 ? 1.0 / std::sqrt(norm_sq) : 0.0;
    for (int64_t j = 0; j < m.d; ++j) rows[i * m.d + j] = src[j] * inv;
  }
  return rows;
}

}  // namespace

std::vector<int64_t> RunSelection(DataSelector* selector,
                                  const SelectionContext& context,
                                  int64_t budget, util::Rng* rng) {
  EDSR_CHECK(selector != nullptr);
  return ExactPicks(*selector, Reps(context).n, budget, [&] {
    return selector->Select(context, budget, rng);
  });
}

// ---- Selectors ------------------------------------------------------------

std::vector<int64_t> RandomSelector::Select(const SelectionContext& context,
                                            int64_t budget, util::Rng* rng) {
  const RepresentationMatrix& reps = Reps(context);
  return rng->SampleWithoutReplacement(reps.n, std::min(budget, reps.n));
}

std::vector<int64_t> DistantSelector::Select(const SelectionContext& context,
                                             int64_t budget, util::Rng* rng) {
  return DSquaredSeeding(Reps(context), budget, rng);
}

std::vector<int64_t> KMeansSelector::Select(const SelectionContext& context,
                                            int64_t budget, util::Rng* rng) {
  const RepresentationMatrix& reps = Reps(context);
  int64_t k = std::min(budget, reps.n);
  KMeansResult kmeans = LloydKMeans(reps, k, iterations_, rng);
  // Nearest distinct sample to each centroid, scored off one (n x clusters)
  // pairwise-distance matrix.
  tensor::arena::Scope scope;
  float* dist = tensor::arena::AllocFloats(reps.n * kmeans.clusters);
  tensor::kernels::PairwiseSqDist(reps.values.data(), reps.n,
                                  kmeans.centroids.data(), kmeans.clusters,
                                  reps.d, dist);
  std::vector<bool> taken(reps.n, false);
  std::vector<int64_t> chosen;
  chosen.reserve(k);
  for (int64_t c = 0; c < kmeans.clusters; ++c) {
    int64_t best = -1;
    double best_dist = std::numeric_limits<double>::infinity();
    for (int64_t i = 0; i < reps.n; ++i) {
      if (taken[i]) continue;
      double d = dist[i * kmeans.clusters + c];
      if (d < best_dist) {
        best_dist = d;
        best = i;
      }
    }
    if (best >= 0) {
      taken[best] = true;
      chosen.push_back(best);
    }
  }
  return chosen;
}

std::vector<int64_t> MinVarSelector::Select(const SelectionContext& context,
                                            int64_t budget, util::Rng* rng) {
  const RepresentationMatrix& reps = Reps(context);
  EDSR_CHECK_EQ(context.augmentation_variance.size(),
                static_cast<size_t>(reps.n))
      << "MinVar requires augmentation variance scores";
  int64_t k = std::min(budget, reps.n);
  int64_t clusters = num_clusters_ > 0
                         ? std::min(num_clusters_, reps.n)
                         : std::max<int64_t>(1, std::min<int64_t>(k, 10));
  KMeansResult kmeans = LloydKMeans(reps, clusters, 10, rng);
  // Per-cluster quota proportional to cluster size; inside each cluster,
  // keep the lowest-variance samples.
  std::vector<std::vector<int64_t>> members(clusters);
  for (int64_t i = 0; i < reps.n; ++i) {
    members[kmeans.assignment[i]].push_back(i);
  }
  for (auto& m : members) {
    std::sort(m.begin(), m.end(), [&](int64_t a, int64_t b) {
      return context.augmentation_variance[a] <
             context.augmentation_variance[b];
    });
  }
  std::vector<int64_t> chosen;
  std::vector<size_t> cursor(clusters, 0);
  // Round-robin weighted by size until the budget is filled.
  while (static_cast<int64_t>(chosen.size()) < k) {
    bool advanced = false;
    for (int64_t c = 0; c < clusters && static_cast<int64_t>(chosen.size()) < k;
         ++c) {
      if (cursor[c] < members[c].size()) {
        chosen.push_back(members[c][cursor[c]++]);
        advanced = true;
      }
    }
    if (!advanced) break;
  }
  return chosen;
}

std::vector<int64_t> HighEntropySelector::Select(
    const SelectionContext& context, int64_t budget, util::Rng* rng) {
  (void)rng;  // fully deterministic given the representations
  const RepresentationMatrix& reps = Reps(context);
  switch (mode_) {
    case Mode::kNorm: {
      std::vector<double> scores(reps.n);
      for (int64_t i = 0; i < reps.n; ++i) {
        scores[i] = tensor::kernels::SumSquares(reps.d, reps.Row(i));
      }
      return TopK(scores, budget);
    }
    case Mode::kPcaLeverage: {
      int64_t components =
          std::min<int64_t>({num_components_, reps.d, reps.n});
      // Cov(A) = A^T A per the paper's convention: uncentered PCA.
      linalg::Pca pca = linalg::Pca::Fit(reps.values, reps.n, reps.d,
                                         components, /*center=*/false);
      std::vector<double> scores(reps.n);
      for (int64_t i = 0; i < reps.n; ++i) {
        scores[i] = pca.LeverageScore(reps.Row(i));
      }
      return TopK(scores, budget);
    }
    case Mode::kGreedyLogDet:
      return SelectGreedyLogDet(reps, budget);
  }
  EDSR_CHECK(false) << "unknown HighEntropySelector mode";
  return {};
}

std::vector<int64_t> HighEntropySelector::SelectGreedyLogDet(
    const RepresentationMatrix& reps, int64_t budget) const {
  // Greedy D-optimal design: repeatedly add the sample maximizing
  // log det(A + z z^T) - log det(A) = log(1 + z^T A^{-1} z), maintaining
  // A^{-1} via Sherman–Morrison. A starts as the identity (regularizer).
  int64_t d = reps.d;
  int64_t k = std::min(budget, reps.n);
  std::vector<double> a_inv(d * d, 0.0);
  for (int64_t i = 0; i < d; ++i) a_inv[i * d + i] = 1.0;
  std::vector<bool> taken(reps.n, false);
  std::vector<int64_t> chosen;
  std::vector<double> ainv_z(d);
  tensor::arena::Scope scope;
  float* a_inv_f = tensor::arena::AllocFloats(d * d);
  float* s = tensor::arena::AllocFloats(reps.n * d);
  for (int64_t step = 0; step < k; ++step) {
    // Score all candidates at once: S = reps * A^{-1} (A^{-1} is symmetric),
    // then quad_i = S_i . z_i. The Sherman-Morrison state stays in double;
    // only the scoring pass drops to float for the GEMM.
    for (int64_t i = 0; i < d * d; ++i) {
      a_inv_f[i] = static_cast<float>(a_inv[i]);
    }
    tensor::kernels::Gemm(reps.values.data(), a_inv_f, s, reps.n, d, d,
                          false, false, false);
    int64_t best = -1;
    double best_gain = -1.0;
    for (int64_t i = 0; i < reps.n; ++i) {
      if (taken[i]) continue;
      double quad = tensor::kernels::Dot(d, s + i * d, reps.Row(i));
      if (quad > best_gain) {
        best_gain = quad;
        best = i;
      }
    }
    if (best < 0) break;
    taken[best] = true;
    chosen.push_back(best);
    // Sherman–Morrison update: A^{-1} -= (A^{-1} z z^T A^{-1}) / (1 + z^T A^{-1} z).
    const float* z = reps.Row(best);
    for (int64_t r = 0; r < d; ++r) {
      double acc = 0.0;
      for (int64_t c = 0; c < d; ++c) acc += a_inv[r * d + c] * z[c];
      ainv_z[r] = acc;
    }
    // Recompute the quadratic form in double for the update; the float
    // scoring pass above is only used to pick the argmax.
    double quad = 0.0;
    for (int64_t r = 0; r < d; ++r) quad += ainv_z[r] * z[r];
    double denom = 1.0 + quad;
    for (int64_t r = 0; r < d; ++r) {
      for (int64_t c = 0; c < d; ++c) {
        a_inv[r * d + c] -= ainv_z[r] * ainv_z[c] / denom;
      }
    }
  }
  return chosen;
}

std::vector<int64_t> GradientAffinitySelector::Select(
    const SelectionContext& context, int64_t budget, util::Rng* rng) {
  (void)rng;  // deterministic greedy given the gradients
  const RepresentationMatrix& reps = Reps(context);
  EDSR_CHECK(context.gradient_features != nullptr)
      << "gradient-affinity requires per-sample gradient features";
  const RepresentationMatrix& grads = *context.gradient_features;
  EDSR_CHECK_EQ(grads.n, reps.n)
      << "gradient features must cover every sample";
  int64_t n = grads.n;
  int64_t d = grads.d;
  int64_t k = std::min(budget, n);
  std::vector<double> g = NormalizedRows(grads);

  // Minibatch similarity: cosine to the mean gradient direction (OCS's
  // "representative" term).
  std::vector<double> mean(d, 0.0);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < d; ++j) mean[j] += g[i * d + j];
  }
  double mean_norm = 0.0;
  for (int64_t j = 0; j < d; ++j) mean_norm += mean[j] * mean[j];
  mean_norm = std::sqrt(mean_norm);
  if (mean_norm > 0.0) {
    for (int64_t j = 0; j < d; ++j) mean[j] /= mean_norm;
  }

  // Affinity: cosine to the running reference gradient of past selections.
  std::vector<double> base(n, 0.0);
  for (int64_t i = 0; i < n; ++i) {
    double sim = 0.0;
    for (int64_t j = 0; j < d; ++j) sim += g[i * d + j] * mean[j];
    base[i] = sim;
  }
  if (reference_count_ > 0 &&
      static_cast<int64_t>(reference_.size()) == d) {
    double ref_norm = 0.0;
    for (int64_t j = 0; j < d; ++j) ref_norm += reference_[j] * reference_[j];
    ref_norm = std::sqrt(ref_norm);
    if (ref_norm > 0.0) {
      for (int64_t i = 0; i < n; ++i) {
        double aff = 0.0;
        for (int64_t j = 0; j < d; ++j) {
          aff += g[i * d + j] * reference_[j] / ref_norm;
        }
        base[i] += tau_ * aff;
      }
    }
  }

  // Greedy pick with a diversity penalty: each step takes the candidate
  // maximizing base_i − kappa · mean cosine to the already-selected set.
  std::vector<bool> taken(n, false);
  std::vector<double> redundancy(n, 0.0);  // Σ_{j∈S} cos(g_i, g_j)
  std::vector<int64_t> chosen;
  chosen.reserve(k);
  for (int64_t step = 0; step < k; ++step) {
    int64_t best = -1;
    double best_score = -std::numeric_limits<double>::infinity();
    double inv_count = chosen.empty() ? 0.0 : 1.0 / chosen.size();
    for (int64_t i = 0; i < n; ++i) {
      if (taken[i]) continue;
      double score = base[i] - kappa_ * redundancy[i] * inv_count;
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    if (best < 0) break;
    taken[best] = true;
    chosen.push_back(best);
    for (int64_t i = 0; i < n; ++i) {
      if (taken[i]) continue;
      double sim = 0.0;
      for (int64_t j = 0; j < d; ++j) sim += g[i * d + j] * g[best * d + j];
      redundancy[i] += sim;
    }
  }

  // Fold the kept gradients into the running reference (the affinity anchor
  // for future increments). A dimensionality change resets the state.
  if (static_cast<int64_t>(reference_.size()) != d) {
    reference_.assign(d, 0.0);
    reference_count_ = 0;
  }
  for (int64_t pick : chosen) {
    for (int64_t j = 0; j < d; ++j) {
      reference_[j] += (g[pick * d + j] - reference_[j]) /
                       static_cast<double>(reference_count_ + 1);
    }
    ++reference_count_;
  }
  return chosen;
}

void GradientAffinitySelector::Serialize(io::BufferWriter* out) const {
  out->WriteI64(reference_count_);
  out->WriteU64(reference_.size());
  for (double v : reference_) out->WriteF64(v);
}

util::Status GradientAffinitySelector::Deserialize(io::BufferReader* in) {
  int64_t count = 0;
  EDSR_RETURN_NOT_OK(in->ReadI64(&count));
  if (count < 0) {
    return util::Status::IoError("negative gradient-affinity reference count");
  }
  uint64_t dims = 0;
  EDSR_RETURN_NOT_OK(in->ReadU64(&dims));
  if (dims > in->remaining() / sizeof(double)) {
    return util::Status::IoError("truncated gradient-affinity reference");
  }
  std::vector<double> reference(dims);
  for (uint64_t j = 0; j < dims; ++j) {
    EDSR_RETURN_NOT_OK(in->ReadF64(&reference[j]));
  }
  reference_count_ = count;
  reference_ = std::move(reference);
  return util::Status::OK();
}

std::vector<int64_t> ComplementarySelector::Select(
    const SelectionContext& context, int64_t budget, util::Rng* rng) {
  (void)rng;  // deterministic greedy coverage
  const RepresentationMatrix& reps = Reps(context);
  int64_t n = reps.n;
  int64_t k = std::min(budget, n);
  // Full pairwise similarity; increments are small at this repo's scale
  // (hundreds of samples), so the n^2 matrix is cheap and GEMM-backed.
  tensor::arena::Scope scope;
  float* dist = tensor::arena::AllocFloats(n * n);
  tensor::kernels::PairwiseSqDist(reps.values.data(), n, reps.values.data(),
                                  n, reps.d, dist);
  std::vector<double> cover(n, 0.0);  // best similarity to the kept set
  std::vector<bool> taken(n, false);
  std::vector<int64_t> chosen;
  chosen.reserve(k);
  auto similarity = [&](int64_t i, int64_t j) {
    return 1.0 / (1.0 + static_cast<double>(dist[i * n + j]));
  };
  for (int64_t step = 0; step < k; ++step) {
    int64_t best = -1;
    double best_gain = -1.0;
    for (int64_t i = 0; i < n; ++i) {
      if (taken[i]) continue;
      double gain = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        double s = similarity(i, j);
        if (s > cover[j]) gain += s - cover[j];
      }
      // Deterministic tie-break: strictly-greater keeps the lowest index.
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best < 0) break;
    taken[best] = true;
    chosen.push_back(best);
    for (int64_t j = 0; j < n; ++j) {
      cover[j] = std::max(cover[j], similarity(best, j));
    }
  }
  return chosen;
}

}  // namespace edsr::cl

namespace edsr::util {

template <>
const SpecRegistry<cl::DataSelector>& SpecRegistry<cl::DataSelector>::Global() {
  using Made = Result<std::unique_ptr<cl::DataSelector>>;
  static const SpecRegistry registry(
      "selector",
      {{"random",
        [](SpecParams& params) -> Made {
          EDSR_RETURN_NOT_OK(params.Finish());
          return Made(std::make_unique<cl::RandomSelector>());
        }},
       {"distant",
        [](SpecParams& params) -> Made {
          EDSR_RETURN_NOT_OK(params.Finish());
          return Made(std::make_unique<cl::DistantSelector>());
        }},
       {"kmeans",
        [](SpecParams& params) -> Made {
          int64_t iters = params.GetInt("iters", 10);
          EDSR_RETURN_NOT_OK(params.Finish());
          if (iters <= 0) {
            return Status::InvalidArgument("kmeans: iters must be > 0");
          }
          return Made(std::make_unique<cl::KMeansSelector>(iters));
        }},
       {"minvar",
        [](SpecParams& params) -> Made {
          int64_t clusters = params.GetInt("clusters", 0);
          EDSR_RETURN_NOT_OK(params.Finish());
          if (clusters < 0) {
            return Status::InvalidArgument("minvar: clusters must be >= 0");
          }
          return Made(std::make_unique<cl::MinVarSelector>(clusters));
        }},
       {"high-entropy",
        [](SpecParams& params) -> Made {
          using Mode = cl::HighEntropySelector::Mode;
          std::string mode_name = params.GetString("mode", "pca");
          int64_t components = params.GetInt("components", 8);
          EDSR_RETURN_NOT_OK(params.Finish());
          Mode mode;
          if (mode_name == "norm") {
            mode = Mode::kNorm;
          } else if (mode_name == "pca") {
            mode = Mode::kPcaLeverage;
          } else if (mode_name == "logdet") {
            mode = Mode::kGreedyLogDet;
          } else {
            return Status::InvalidArgument(
                "high-entropy: unknown mode \"" + mode_name +
                "\" (expected norm, pca, or logdet)");
          }
          return Made(
              std::make_unique<cl::HighEntropySelector>(mode, components));
        }},
       {"gradient-affinity",
        [](SpecParams& params) -> Made {
          double tau = params.GetDouble("tau", 1.0);
          double kappa = params.GetDouble("kappa", 0.5);
          EDSR_RETURN_NOT_OK(params.Finish());
          return Made(
              std::make_unique<cl::GradientAffinitySelector>(tau, kappa));
        }},
       {"complementary", [](SpecParams& params) -> Made {
          EDSR_RETURN_NOT_OK(params.Finish());
          return Made(std::make_unique<cl::ComplementarySelector>());
        }}});
  return registry;
}

}  // namespace edsr::util
