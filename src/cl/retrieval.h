// Retrieval policies: which stored samples to replay (the read side).
//
// The replay-strategies benchmark of the related work (PAPERS.md; MIR,
// entropy/margin retrieval) shows *what you draw* from the buffer matters as
// much as what you wrote into it. A RetrievalPolicy ranks the MemoryBuffer's
// entries each time a strategy needs a replay batch; strategies draw through
// DrawRetrieval() instead of hardwired uniform sampling.
//
// Policies that rank by the *current* model's view of the buffer declare
// needs_current_representations(); the strategy then supplies a
// RepresentationMatrix with one row per buffer entry (entry k -> row k)
// computed under the current encoder. Together with MemoryEntry's
// stored_representation (the write-time view), this exposes representation
// drift — the unsupervised stand-in for MIR's "maximally interfered" loss
// increase.
//
// Policies are built through RetrievalRegistry from "name[:key=value,...]"
// specs (src/util/spec.h).
#ifndef EDSR_SRC_CL_RETRIEVAL_H_
#define EDSR_SRC_CL_RETRIEVAL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cl/memory.h"
#include "src/cl/selection.h"
#include "src/eval/representations.h"
#include "src/util/rng.h"
#include "src/util/spec.h"
#include "src/util/status.h"

namespace edsr::cl {

struct RetrievalContext {
  const MemoryBuffer* memory = nullptr;
  // Current-model representations of the buffer entries (row k = entry k);
  // null unless the policy declared needs_current_representations().
  const eval::RepresentationMatrix* current = nullptr;
};

class RetrievalPolicy {
 public:
  virtual ~RetrievalPolicy() = default;

  // Raw draw policy; callers go through DrawRetrieval(), which enforces the
  // shared contract. Draw may assume 0 < k <= memory->size().
  virtual std::vector<int64_t> Draw(const RetrievalContext& context, int64_t k,
                                    util::Rng* rng) = 0;
  virtual bool needs_current_representations() const { return false; }
  virtual std::string name() const = 0;

  // Cross-increment policy state for checkpoint/crash-resume (same contract
  // as DataSelector::Serialize/Deserialize; the built-ins are stateless).
  virtual void Serialize(io::BufferWriter* out) const { (void)out; }
  virtual util::Status Deserialize(io::BufferReader* in) {
    (void)in;
    return util::Status::OK();
  }
};

// Draw() under ExactPicks (selection.h) with n = the buffer's size.
std::vector<int64_t> DrawRetrieval(RetrievalPolicy* policy,
                                   const RetrievalContext& context, int64_t k,
                                   util::Rng* rng);

// Built from "name[:key=value,...]" specs; the built-ins (uniform,
// max-loss, entropy, margin) are the table in retrieval.cc.
using RetrievalRegistry = util::SpecRegistry<RetrievalPolicy>;

// Resolves a context's retrieval spec: empty falls back to "uniform";
// an invalid spec aborts with the registry's message (callers wanting a
// recoverable error validate through RetrievalRegistry::Create themselves).
std::unique_ptr<RetrievalPolicy> MakeRetrievalOrDie(const std::string& spec);

// Uniform sampling without replacement — the classic ER draw (and the exact
// behavior every strategy had before retrieval policies existed).
class UniformRetrieval : public RetrievalPolicy {
 public:
  std::vector<int64_t> Draw(const RetrievalContext& context, int64_t k,
                            util::Rng* rng) override;
  std::string name() const override { return "uniform"; }
};

// MIR-style "max-loss" retrieval: replay the entries whose current-model
// representation drifted farthest from the stored write-time representation
// (largest ||current_k − stored_k||²) — the samples the latest updates
// interfered with most. Entries without a stored representation fall back to
// their current squared norm.
class MaxLossRetrieval : public RetrievalPolicy {
 public:
  std::vector<int64_t> Draw(const RetrievalContext& context, int64_t k,
                            util::Rng* rng) override;
  bool needs_current_representations() const override { return true; }
  std::string name() const override { return "max-loss"; }
};

// Entropy-ranked retrieval: order entries by the current representation's
// squared norm — the per-sample term of the repo's Tr(Cov) entropy surrogate
// (Eq. 15). order=largest (default) replays the highest-entropy entries;
// order=least the lowest.
class EntropyRetrieval : public RetrievalPolicy {
 public:
  explicit EntropyRetrieval(bool largest_first = true)
      : largest_first_(largest_first) {}
  std::vector<int64_t> Draw(const RetrievalContext& context, int64_t k,
                            util::Rng* rng) override;
  bool needs_current_representations() const override { return true; }
  std::string name() const override { return "entropy"; }

 private:
  bool largest_first_;
};

// Margin-ranked retrieval: for each entry, the gap between its nearest and
// second-nearest buffer neighbour in current representation space. Small
// margins = entries sitting on a decision boundary between stored clusters;
// replaying them first sharpens exactly the regions drifting together.
class MarginRetrieval : public RetrievalPolicy {
 public:
  std::vector<int64_t> Draw(const RetrievalContext& context, int64_t k,
                            util::Rng* rng) override;
  bool needs_current_representations() const override { return true; }
  std::string name() const override { return "margin"; }
};

}  // namespace edsr::cl

namespace edsr::util {
template <>
const SpecRegistry<cl::RetrievalPolicy>&
SpecRegistry<cl::RetrievalPolicy>::Global();
}  // namespace edsr::util

#endif  // EDSR_SRC_CL_RETRIEVAL_H_
