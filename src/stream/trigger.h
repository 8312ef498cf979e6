// CycleTrigger: when does a boundary-free stream consolidate?
//
// The CycleEngine asks the trigger after every micro-batch whether the open
// cycle should close (run selection + replay consolidation — the streaming
// analogue of an increment boundary). ShouldFire returns the *cause* string
// recorded in the "cycle" telemetry record: "" keeps streaming, "count"
// fired on sample count, "drift" on representation drift, "max" on the
// drift trigger's forced ceiling.
//
// The drift signal is supplied lazily: `drift_probe` runs the buffer's
// entries through the current encoder and averages the squared distance to
// their stored_representation anchors (the MIR signal that max-loss
// retrieval ranks by), normalized per dimension. It returns a negative
// value while no anchors exist (empty buffer — the cold-start cycle), so
// count-style triggers never pay for forwards and drift triggers fall back
// to their sample ceiling.
//
// Triggers are built through TriggerRegistry from "name[:key=value,...]"
// specs (src/util/spec.h).
#ifndef EDSR_SRC_STREAM_TRIGGER_H_
#define EDSR_SRC_STREAM_TRIGGER_H_

#include <functional>
#include <string>

#include "src/io/serialize.h"
#include "src/util/spec.h"
#include "src/util/status.h"

namespace edsr::stream {

struct TriggerContext {
  int64_t samples_in_cycle = 0;       // consumed since the last fire
  int64_t micro_batches_in_cycle = 0;
  int64_t total_samples = 0;          // consumed since the stream started
  int64_t cycle = 0;                  // completed cycles so far
};

class CycleTrigger {
 public:
  virtual ~CycleTrigger() = default;

  // Cause string if the cycle should close after this micro-batch, empty
  // otherwise. `drift_probe` is only invoked when the trigger needs the
  // drift signal.
  virtual std::string ShouldFire(const TriggerContext& context,
                                 const std::function<double()>& drift_probe) = 0;
  virtual std::string name() const = 0;

  // Cross-cycle trigger state for checkpoint/crash-resume (the cycle
  // counters live in the CycleEngine; this is for trigger-internal
  // cadence state). Stateless triggers keep the no-op defaults.
  virtual void Serialize(io::BufferWriter* out) const { (void)out; }
  virtual util::Status Deserialize(io::BufferReader* in) {
    (void)in;
    return util::Status::OK();
  }
};

// The built-ins ("count", "drift") are the table in trigger.cc.
using TriggerRegistry = util::SpecRegistry<CycleTrigger>;

// "count:n=256": fire after n samples, the fixed-cadence baseline (the
// closest streaming analogue of the old fixed increments).
class CountTrigger : public CycleTrigger {
 public:
  explicit CountTrigger(int64_t n) : n_(n) {}
  std::string ShouldFire(const TriggerContext& context,
                         const std::function<double()>& drift_probe) override;
  std::string name() const override { return "count"; }
  int64_t n() const { return n_; }

 private:
  int64_t n_;
};

// "drift:threshold=0.02,min=64,max=512,check=4": adaptive cadence. After
// `min` samples, probe the drift signal every `check` micro-batches and
// fire when it reaches `threshold`; `max` samples force a fire regardless
// (and carry the cold-start cycle, which has no anchors to drift).
class DriftTrigger : public CycleTrigger {
 public:
  DriftTrigger(double threshold, int64_t min_samples, int64_t max_samples,
               int64_t check_every)
      : threshold_(threshold),
        min_samples_(min_samples),
        max_samples_(max_samples),
        check_every_(check_every) {}
  std::string ShouldFire(const TriggerContext& context,
                         const std::function<double()>& drift_probe) override;
  std::string name() const override { return "drift"; }
  double threshold() const { return threshold_; }

 private:
  double threshold_;
  int64_t min_samples_;
  int64_t max_samples_;
  int64_t check_every_;
};

}  // namespace edsr::stream

namespace edsr::util {
template <>
const SpecRegistry<stream::CycleTrigger>&
SpecRegistry<stream::CycleTrigger>::Global();
}  // namespace edsr::util

#endif  // EDSR_SRC_STREAM_TRIGGER_H_
