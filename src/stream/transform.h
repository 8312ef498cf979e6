// Dirty-data stream transforms (the OCS-style realistic regimes).
//
// A StreamTransform is one stage of a stream spec chain
//   "SynthCifar10|imbalance:alpha=1.5|label_noise:p=0.2"
// and contributes two things to a StreamSource:
//   * ClassWeight — a multiplicative per-class sampling weight (power-law
//     imbalance lives here; the source multiplies the weights of every
//     stage into one categorical distribution);
//   * Apply — a per-sample mutation drawn from the stream rng in emission
//     order (label corruption, feature noise / occlusion bursts), so a
//     replayed stream is bit-identical.
// Transforms corrupt `observed_label` only; `label` keeps the ground truth
// so the ID/OOD kNN evaluation stays honest about what the learner saw.
//
// Stages are built through StreamRegistry from "name[:key=value,...]"
// specs (src/util/spec.h).
#ifndef EDSR_SRC_STREAM_TRANSFORM_H_
#define EDSR_SRC_STREAM_TRANSFORM_H_

#include <string>
#include <vector>

#include "src/io/serialize.h"
#include "src/util/rng.h"
#include "src/util/spec.h"
#include "src/util/status.h"

namespace edsr::stream {

// One emitted stream sample. `label` is the ground truth (never touched by
// transforms); `observed_label` is what the learner's buffer records.
struct StreamSample {
  std::vector<float> features;
  int64_t label = -1;
  int64_t observed_label = -1;
  int64_t source_index = -1;  // row in the base dataset
};

class StreamTransform {
 public:
  virtual ~StreamTransform() = default;

  // Multiplicative sampling weight this stage contributes for class `cls`.
  // Queried once per class when the source builds its categorical
  // distribution. Default: 1 (no reweighting).
  virtual float ClassWeight(int64_t cls, int64_t num_classes) const {
    (void)cls;
    (void)num_classes;
    return 1.0f;
  }
  // Per-sample mutation; draws come from the stream rng in emission order.
  virtual void Apply(StreamSample* sample, int64_t num_classes,
                     util::Rng* rng) {
    (void)sample;
    (void)num_classes;
    (void)rng;
  }
  virtual std::string name() const = 0;

  // Cross-sample transform state (e.g. the corrupt stage's burst counter)
  // for checkpoint/crash-resume; stateless stages keep the no-op defaults.
  virtual void Serialize(io::BufferWriter* out) const { (void)out; }
  virtual util::Status Deserialize(io::BufferReader* in) {
    (void)in;
    return util::Status::OK();
  }
};

// The built-ins (imbalance, label_noise, corrupt) are the table in
// transform.cc.
using StreamRegistry = util::SpecRegistry<StreamTransform>;

// Power-law class imbalance: weight_c ∝ (c + 1)^-alpha, so class 0 is the
// head and the tail thins polynomially (alpha = 0 restores balance).
class ImbalanceTransform : public StreamTransform {
 public:
  explicit ImbalanceTransform(double alpha) : alpha_(alpha) {}
  float ClassWeight(int64_t cls, int64_t num_classes) const override;
  std::string name() const override { return "imbalance"; }
  double alpha() const { return alpha_; }

 private:
  double alpha_;
};

// Symmetric label corruption: with probability p the observed label is
// replaced by a uniformly drawn *different* class. Ground truth survives in
// StreamSample::label for evaluation.
class LabelNoiseTransform : public StreamTransform {
 public:
  explicit LabelNoiseTransform(double p) : p_(p) {}
  void Apply(StreamSample* sample, int64_t num_classes,
             util::Rng* rng) override;
  std::string name() const override { return "label_noise"; }
  double p() const { return p_; }

 private:
  double p_;
};

// Feature corruption bursts: with probability p a burst of `burst_length`
// consecutive samples starts; every sample inside a burst gets additive
// Gaussian noise (stddev `strength`) plus a zeroed contiguous occlusion
// span covering `occlusion` of its features. The remaining-burst counter is
// the serialized state (a resumed stream must finish its burst, not forget
// it).
class CorruptTransform : public StreamTransform {
 public:
  CorruptTransform(double p, double strength, int64_t burst_length,
                   double occlusion)
      : p_(p),
        strength_(strength),
        burst_length_(burst_length),
        occlusion_(occlusion) {}
  void Apply(StreamSample* sample, int64_t num_classes,
             util::Rng* rng) override;
  std::string name() const override { return "corrupt"; }
  int64_t burst_remaining() const { return burst_remaining_; }

  void Serialize(io::BufferWriter* out) const override;
  util::Status Deserialize(io::BufferReader* in) override;

 private:
  double p_;
  double strength_;
  int64_t burst_length_;
  double occlusion_;
  int64_t burst_remaining_ = 0;
};

}  // namespace edsr::stream

namespace edsr::util {
template <>
const SpecRegistry<stream::StreamTransform>&
SpecRegistry<stream::StreamTransform>::Global();
}  // namespace edsr::util

#endif  // EDSR_SRC_STREAM_TRANSFORM_H_
