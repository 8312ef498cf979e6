// Data selection methods (paper §III-A and Table V baselines).
//
// A DataSelector picks `budget` sample indices from one increment, given the
// representations extracted by the just-trained model. Selectors declare the
// extra signals they consume — MinVar needs per-sample augmentation
// variance, the gradient-affinity coreset needs per-sample loss gradients —
// so the trainer only pays for a signal when the active selector asks.
//
// Selectors are constructed through SelectorRegistry from a spec string
//   "name" or "name:key=value,key=value"
// (e.g. "kmeans:iters=5", "high-entropy:mode=logdet"; grammar and registry
// in src/util/spec.h). The registry is the single construction path for
// demos, the factory, benches, and the experiment matrix.
// RunSelection() wraps Select() with the exact-k pick contract
// (ExactPicks: budget clamping, dedup, in-range enforcement) so individual
// selectors stay simple.
#ifndef EDSR_SRC_CL_SELECTION_H_
#define EDSR_SRC_CL_SELECTION_H_

#include <numeric>
#include <string>
#include <vector>

#include "src/eval/representations.h"
#include "src/io/serialize.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/spec.h"
#include "src/util/status.h"

namespace edsr::cl {

struct SelectionContext {
  // (n, d) representations of the increment under the trained model f̂.
  const eval::RepresentationMatrix* representations = nullptr;
  // Per-sample variance of augmented-view representations (MinVar); empty
  // unless the selector asked for it.
  std::vector<double> augmentation_variance;
  // (n, d) per-sample loss-gradient embeddings ∂L/∂z_i (gradient-affinity);
  // null unless the selector asked for it.
  const eval::RepresentationMatrix* gradient_features = nullptr;
};

class DataSelector {
 public:
  virtual ~DataSelector() = default;

  // Raw selection policy. Callers should go through RunSelection(), which
  // enforces the shared contract; Select itself may assume 0 < budget and a
  // non-empty representation matrix. Non-const: selectors may carry state
  // across increments (e.g. the gradient-affinity reference direction).
  virtual std::vector<int64_t> Select(const SelectionContext& context,
                                      int64_t budget, util::Rng* rng) = 0;
  virtual bool needs_augmentation_variance() const { return false; }
  virtual bool needs_gradient_features() const { return false; }
  virtual std::string name() const = 0;

  // Cross-increment selector state for checkpoint/crash-resume. Stateless
  // selectors keep the no-op defaults; stateful ones must round-trip
  // bit-identically (resume_test.cc).
  virtual void Serialize(io::BufferWriter* out) const { (void)out; }
  virtual util::Status Deserialize(io::BufferReader* in) {
    (void)in;
    return util::Status::OK();
  }
};

// The exact-k pick contract, enforced once for every selector and every
// retrieval policy over n candidates:
//   * k <= 0 or n <= 0       -> empty;
//   * k >= n                 -> all indices [0, n) (`draw` is not called);
//   * otherwise              -> exactly k unique in-range indices: the
//     duplicates `draw()` returns are dropped (first occurrence wins) and
//     short returns are padded with the lowest not-yet-chosen indices, so
//     downstream memory writes never see a ragged selection.
// Out-of-range indices are a bug of `policy` and abort.
template <typename Policy, typename Draw>
std::vector<int64_t> ExactPicks(const Policy& policy, int64_t n, int64_t k,
                                Draw draw) {
  if (k <= 0 || n <= 0) return {};
  if (k >= n) {
    std::vector<int64_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  std::vector<int64_t> raw = draw();
  std::vector<bool> chosen(n, false);
  std::vector<int64_t> picks;
  picks.reserve(k);
  for (int64_t index : raw) {
    EDSR_CHECK(index >= 0 && index < n)
        << policy.name() << " picked out-of-range index " << index
        << " (n = " << n << ")";
    if (chosen[index]) continue;
    chosen[index] = true;
    picks.push_back(index);
    if (static_cast<int64_t>(picks.size()) == k) break;
  }
  for (int64_t i = 0; i < n && static_cast<int64_t>(picks.size()) < k; ++i) {
    if (!chosen[i]) {
      chosen[i] = true;
      picks.push_back(i);
    }
  }
  return picks;
}

// Select() under ExactPicks with n = the increment's size, k = budget.
std::vector<int64_t> RunSelection(DataSelector* selector,
                                  const SelectionContext& context,
                                  int64_t budget, util::Rng* rng);

// Built from "name[:key=value,...]" specs; the built-ins are the table in
// selection.cc.
using SelectorRegistry = util::SpecRegistry<DataSelector>;

// "Random" baseline: uniform sample without replacement.
class RandomSelector : public DataSelector {
 public:
  std::vector<int64_t> Select(const SelectionContext& context, int64_t budget,
                              util::Rng* rng) override;
  std::string name() const override { return "random"; }
};

// "Distant" baseline: k-means++ seeding — iteratively add the sample whose
// squared distance to the chosen set is largest (D^2 sampling).
class DistantSelector : public DataSelector {
 public:
  std::vector<int64_t> Select(const SelectionContext& context, int64_t budget,
                              util::Rng* rng) override;
  std::string name() const override { return "distant"; }
};

// "K-means" baseline: Lloyd clustering in representation space; stores the
// samples nearest to each centroid (clusters = budget).
class KMeansSelector : public DataSelector {
 public:
  explicit KMeansSelector(int64_t iterations = 10) : iterations_(iterations) {}
  std::vector<int64_t> Select(const SelectionContext& context, int64_t budget,
                              util::Rng* rng) override;
  std::string name() const override { return "kmeans"; }

 private:
  int64_t iterations_;
};

// "Min-Var" baseline (Lin et al.): cluster, then keep the samples whose
// augmented views have the smallest representation variance.
class MinVarSelector : public DataSelector {
 public:
  explicit MinVarSelector(int64_t num_clusters = 0)
      : num_clusters_(num_clusters) {}
  std::vector<int64_t> Select(const SelectionContext& context, int64_t budget,
                              util::Rng* rng) override;
  bool needs_augmentation_variance() const override { return true; }
  std::string name() const override { return "minvar"; }

 private:
  int64_t num_clusters_;  // 0 = one cluster per budget slot
};

// EDSR's entropy-based selection (§III-A): maximize Tr(Cov(f̂(M))).
class HighEntropySelector : public DataSelector {
 public:
  enum class Mode {
    // Exact trace maximization: Tr(AᵀA) decomposes into squared row norms,
    // so pick the top-budget norms.
    kNorm,
    // PCA-leverage (default): score_i = Σ_j <v_j, z_i>² over the top
    // principal components — the subset that best reconstructs the
    // representation space (the paper's "via PCA" reading).
    kPcaLeverage,
    // Greedy D-optimal log-det maximization (extension/ablation).
    kGreedyLogDet,
  };

  explicit HighEntropySelector(Mode mode = Mode::kPcaLeverage,
                               int64_t num_components = 8)
      : mode_(mode), num_components_(num_components) {}

  std::vector<int64_t> Select(const SelectionContext& context, int64_t budget,
                              util::Rng* rng) override;
  std::string name() const override { return "high-entropy"; }

  Mode mode() const { return mode_; }

 private:
  std::vector<int64_t> SelectGreedyLogDet(
      const eval::RepresentationMatrix& reps, int64_t budget) const;

  Mode mode_;
  int64_t num_components_;
};

// Gradient-affinity coreset (OCS-style, SNIPPETS.md #2): scores each sample
// by its per-sample loss-gradient embedding g_i = ∂L/∂z_i —
//   score_i = cos(g_i, ḡ)            (minibatch similarity: representative)
//           + tau · cos(g_i, ref)    (affinity to previously kept gradients)
//   greedy:  argmax score_i − kappa · mean_{j∈S} cos(g_i, g_j)  (diversity)
// where ḡ is the increment's mean gradient and `ref` is a running mean of
// the gradients this selector kept on earlier increments. `ref` is the
// cross-increment state and is checkpointed (Serialize/Deserialize).
class GradientAffinitySelector : public DataSelector {
 public:
  explicit GradientAffinitySelector(double tau = 1.0, double kappa = 0.5)
      : tau_(tau), kappa_(kappa) {}

  std::vector<int64_t> Select(const SelectionContext& context, int64_t budget,
                              util::Rng* rng) override;
  bool needs_gradient_features() const override { return true; }
  std::string name() const override { return "gradient-affinity"; }

  void Serialize(io::BufferWriter* out) const override;
  util::Status Deserialize(io::BufferReader* in) override;

  int64_t reference_count() const { return reference_count_; }

 private:
  double tau_;
  double kappa_;
  // Running mean of the unit-normalized gradients of every kept sample.
  std::vector<double> reference_;
  int64_t reference_count_ = 0;
};

// Complementary-embeddings selector (PAPERS.md, Yanowsky & Weinshall):
// greedy facility-location coverage — each pick maximizes the marginal gain
// in how well the kept set covers the increment, so small buffers hold
// *complementary* samples rather than redundant high-score ones:
//   gain(i) = Σ_j max(0, sim(i, j) − cover_j),  sim = 1 / (1 + ||z_i−z_j||²)
class ComplementarySelector : public DataSelector {
 public:
  std::vector<int64_t> Select(const SelectionContext& context, int64_t budget,
                              util::Rng* rng) override;
  std::string name() const override { return "complementary"; }
};

}  // namespace edsr::cl

namespace edsr::util {
template <>
const SpecRegistry<cl::DataSelector>& SpecRegistry<cl::DataSelector>::Global();
}  // namespace edsr::util

#endif  // EDSR_SRC_CL_SELECTION_H_
