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

// ---- Edge-case contract ---------------------------------------------------

std::vector<int64_t> DrawRetrieval(RetrievalPolicy* policy,
                                   const RetrievalContext& context, int64_t k,
                                   util::Rng* rng) {
  EDSR_CHECK(policy != nullptr);
  int64_t size = Memory(context).size();
  if (k <= 0 || size <= 0) return {};
  if (k >= size) {
    std::vector<int64_t> all(size);
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  std::vector<int64_t> raw = policy->Draw(context, k, rng);
  std::vector<bool> chosen(size, false);
  std::vector<int64_t> picks;
  picks.reserve(k);
  for (int64_t index : raw) {
    EDSR_CHECK(index >= 0 && index < size)
        << policy->name() << " drew out-of-range entry " << index
        << " (size = " << size << ")";
    if (chosen[index]) continue;
    chosen[index] = true;
    picks.push_back(index);
    if (static_cast<int64_t>(picks.size()) == k) break;
  }
  for (int64_t i = 0; i < size && static_cast<int64_t>(picks.size()) < k;
       ++i) {
    if (!chosen[i]) {
      chosen[i] = true;
      picks.push_back(i);
    }
  }
  return picks;
}

void SavePolicyState(const RetrievalPolicy& policy, io::BufferWriter* out) {
  out->WriteString(policy.name());
  // Length-prefixed payload, as in SaveSelectorState: LoadPolicyState checks
  // that the policy consumed exactly its own bytes.
  io::BufferWriter payload;
  policy.Serialize(&payload);
  out->WriteU64(payload.bytes().size());
  out->WriteBytes(payload.bytes().data(), payload.bytes().size());
}

util::Status LoadPolicyState(RetrievalPolicy* policy, io::BufferReader* in) {
  EDSR_CHECK(policy != nullptr);
  std::string saved_name;
  EDSR_RETURN_NOT_OK(in->ReadString(&saved_name));
  if (saved_name != policy->name()) {
    return util::Status::InvalidArgument(
        "checkpoint retrieval state was written by \"" + saved_name +
        "\", not \"" + policy->name() + "\"");
  }
  uint64_t size = 0;
  EDSR_RETURN_NOT_OK(in->ReadU64(&size));
  if (size > in->remaining()) {
    return util::Status::IoError("truncated retrieval state payload");
  }
  std::vector<uint8_t> bytes(size);
  EDSR_RETURN_NOT_OK(in->ReadBytes(bytes.data(), bytes.size()));
  io::BufferReader payload(bytes);
  EDSR_RETURN_NOT_OK(policy->Deserialize(&payload));
  return payload.ExpectEnd();
}

// ---- Registry -------------------------------------------------------------

namespace {

void RegisterBuiltinPolicies(RetrievalRegistry* registry) {
  registry->Register(
      "uniform", [](SpecParams& params)
                     -> util::Result<std::unique_ptr<RetrievalPolicy>> {
        EDSR_RETURN_NOT_OK(params.Finish());
        return std::unique_ptr<RetrievalPolicy>(
            std::make_unique<UniformRetrieval>());
      });
  registry->Register(
      "max-loss", [](SpecParams& params)
                      -> util::Result<std::unique_ptr<RetrievalPolicy>> {
        EDSR_RETURN_NOT_OK(params.Finish());
        return std::unique_ptr<RetrievalPolicy>(
            std::make_unique<MaxLossRetrieval>());
      });
  registry->Register(
      "entropy", [](SpecParams& params)
                     -> util::Result<std::unique_ptr<RetrievalPolicy>> {
        std::string order = params.GetString("order", "largest");
        EDSR_RETURN_NOT_OK(params.Finish());
        if (order != "largest" && order != "least") {
          return util::Status::InvalidArgument(
              "entropy: unknown order \"" + order +
              "\" (expected largest or least)");
        }
        return std::unique_ptr<RetrievalPolicy>(
            std::make_unique<EntropyRetrieval>(order == "largest"));
      });
  registry->Register(
      "margin", [](SpecParams& params)
                    -> util::Result<std::unique_ptr<RetrievalPolicy>> {
        EDSR_RETURN_NOT_OK(params.Finish());
        return std::unique_ptr<RetrievalPolicy>(
            std::make_unique<MarginRetrieval>());
      });
}

}  // namespace

RetrievalRegistry& RetrievalRegistry::Global() {
  static RetrievalRegistry* registry = [] {
    auto* r = new RetrievalRegistry();
    RegisterBuiltinPolicies(r);
    return r;
  }();
  return *registry;
}

void RetrievalRegistry::Register(const std::string& name, Factory factory) {
  EDSR_CHECK(!name.empty());
  EDSR_CHECK(factory != nullptr);
  for (const auto& entry : factories_) {
    EDSR_CHECK_NE(entry.first, name)
        << "retrieval policy \"" << name << "\" registered twice";
  }
  factories_.emplace_back(name, std::move(factory));
}

util::Result<std::unique_ptr<RetrievalPolicy>> RetrievalRegistry::Create(
    const std::string& spec) const {
  util::Result<SpecParams> parsed = SpecParams::Parse(spec);
  if (!parsed.ok()) return parsed.status();
  SpecParams params = *parsed;
  for (const auto& entry : factories_) {
    if (entry.first == params.name()) return entry.second(params);
  }
  std::string known;
  for (const auto& entry : factories_) {
    if (!known.empty()) known += ", ";
    known += entry.first;
  }
  return util::Status::InvalidArgument("unknown retrieval policy \"" +
                                       params.name() +
                                       "\"; registered: " + known);
}

bool RetrievalRegistry::Contains(const std::string& name) const {
  for (const auto& entry : factories_) {
    if (entry.first == name) return true;
  }
  return false;
}

std::vector<std::string> RetrievalRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& entry : factories_) names.push_back(entry.first);
  return names;
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
