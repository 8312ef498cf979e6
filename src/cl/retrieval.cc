#include "src/cl/retrieval.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/tensor/arena.h"
#include "src/tensor/kernels.h"
#include "src/util/check.h"

namespace edsr::cl {

namespace {

using eval::RepresentationMatrix;

const MemoryBuffer& Memory(const RetrievalContext& context) {
  EDSR_CHECK(context.memory != nullptr)
      << "RetrievalContext.memory required";
  return *context.memory;
}

// Current-model representations, validated against the buffer size.
const RepresentationMatrix& Current(const RetrievalContext& context,
                                    const char* policy) {
  EDSR_CHECK(context.current != nullptr)
      << policy << " retrieval requires current representations";
  EDSR_CHECK_EQ(context.current->n, Memory(context).size())
      << policy << " retrieval needs one representation row per buffer entry";
  return *context.current;
}

// Indices of the k best scores; `largest_first` picks descending. Ties break
// toward the lower index (stable ranking for determinism).
std::vector<int64_t> RankTopK(const std::vector<double>& scores, int64_t k,
                              bool largest_first) {
  std::vector<int64_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  int64_t take = std::min<int64_t>(k, order.size());
  std::partial_sort(order.begin(), order.begin() + take, order.end(),
                    [&](int64_t a, int64_t b) {
                      if (scores[a] != scores[b]) {
                        return largest_first ? scores[a] > scores[b]
                                             : scores[a] < scores[b];
                      }
                      return a < b;
                    });
  order.resize(take);
  return order;
}

}  // namespace

std::vector<int64_t> DrawRetrieval(RetrievalPolicy* policy,
                                   const RetrievalContext& context, int64_t k,
                                   util::Rng* rng) {
  EDSR_CHECK(policy != nullptr);
  return ExactPicks(*policy, Memory(context).size(), k,
                    [&] { return policy->Draw(context, k, rng); });
}

std::unique_ptr<RetrievalPolicy> MakeRetrievalOrDie(const std::string& spec) {
  util::Result<std::unique_ptr<RetrievalPolicy>> policy =
      RetrievalRegistry::Global().Create(spec.empty() ? "uniform" : spec);
  return std::move(policy).ValueOrDie();
}

// ---- Policies -------------------------------------------------------------

std::vector<int64_t> UniformRetrieval::Draw(const RetrievalContext& context,
                                            int64_t k, util::Rng* rng) {
  int64_t size = Memory(context).size();
  return rng->SampleWithoutReplacement(size, std::min(k, size));
}

std::vector<int64_t> MaxLossRetrieval::Draw(const RetrievalContext& context,
                                            int64_t k, util::Rng* rng) {
  (void)rng;  // deterministic ranking
  const MemoryBuffer& memory = Memory(context);
  const RepresentationMatrix& current = Current(context, "max-loss");
  std::vector<double> drift(memory.size(), 0.0);
  for (int64_t i = 0; i < memory.size(); ++i) {
    const MemoryEntry& entry = memory.entry(i);
    const float* row = current.Row(i);
    if (static_cast<int64_t>(entry.stored_representation.size()) ==
        current.d) {
      for (int64_t j = 0; j < current.d; ++j) {
        double delta = static_cast<double>(row[j]) -
                       static_cast<double>(entry.stored_representation[j]);
        drift[i] += delta * delta;
      }
    } else {
      // No write-time anchor (legacy entries): fall back to the current
      // squared norm so the ranking stays total.
      for (int64_t j = 0; j < current.d; ++j) {
        drift[i] += static_cast<double>(row[j]) * row[j];
      }
    }
  }
  return RankTopK(drift, k, /*largest_first=*/true);
}

std::vector<int64_t> EntropyRetrieval::Draw(const RetrievalContext& context,
                                            int64_t k, util::Rng* rng) {
  (void)rng;  // deterministic ranking
  const RepresentationMatrix& current = Current(context, "entropy");
  std::vector<double> scores(current.n, 0.0);
  for (int64_t i = 0; i < current.n; ++i) {
    scores[i] = tensor::kernels::SumSquares(current.d, current.Row(i));
  }
  return RankTopK(scores, k, largest_first_);
}

std::vector<int64_t> MarginRetrieval::Draw(const RetrievalContext& context,
                                           int64_t k, util::Rng* rng) {
  (void)rng;  // deterministic ranking
  const RepresentationMatrix& current = Current(context, "margin");
  int64_t n = current.n;
  if (n < 3) {
    // Too few entries for a meaningful two-neighbour margin.
    std::vector<int64_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    all.resize(std::min<int64_t>(k, n));
    return all;
  }
  tensor::arena::Scope scope;
  float* dist = tensor::arena::AllocFloats(n * n);
  tensor::kernels::PairwiseSqDist(current.values.data(), n,
                                  current.values.data(), n, current.d, dist);
  std::vector<double> margin(n, 0.0);
  for (int64_t i = 0; i < n; ++i) {
    double best = std::numeric_limits<double>::infinity();
    double second = std::numeric_limits<double>::infinity();
    for (int64_t j = 0; j < n; ++j) {
      if (j == i) continue;
      double d = dist[i * n + j];
      if (d < best) {
        second = best;
        best = d;
      } else if (d < second) {
        second = d;
      }
    }
    margin[i] = second - best;
  }
  // Smallest margin first: the most confusable entries replay first.
  return RankTopK(margin, k, /*largest_first=*/false);
}

}  // namespace edsr::cl

namespace edsr::util {

template <>
const SpecRegistry<cl::RetrievalPolicy>&
SpecRegistry<cl::RetrievalPolicy>::Global() {
  using Made = Result<std::unique_ptr<cl::RetrievalPolicy>>;
  static const SpecRegistry registry(
      "retrieval policy",
      {{"uniform",
        [](SpecParams& params) -> Made {
          EDSR_RETURN_NOT_OK(params.Finish());
          return Made(std::make_unique<cl::UniformRetrieval>());
        }},
       {"max-loss",
        [](SpecParams& params) -> Made {
          EDSR_RETURN_NOT_OK(params.Finish());
          return Made(std::make_unique<cl::MaxLossRetrieval>());
        }},
       {"entropy",
        [](SpecParams& params) -> Made {
          std::string order = params.GetString("order", "largest");
          EDSR_RETURN_NOT_OK(params.Finish());
          if (order != "largest" && order != "least") {
            return Status::InvalidArgument(
                "entropy: unknown order \"" + order +
                "\" (expected largest or least)");
          }
          return Made(
              std::make_unique<cl::EntropyRetrieval>(order == "largest"));
        }},
       {"margin", [](SpecParams& params) -> Made {
          EDSR_RETURN_NOT_OK(params.Finish());
          return Made(std::make_unique<cl::MarginRetrieval>());
        }}});
  return registry;
}

}  // namespace edsr::util
