#include "src/stream/transform.h"

#include <cmath>
#include <memory>

namespace edsr::stream {

// ---- Transforms -----------------------------------------------------------

float ImbalanceTransform::ClassWeight(int64_t cls, int64_t num_classes) const {
  (void)num_classes;
  return static_cast<float>(
      std::pow(static_cast<double>(cls + 1), -alpha_));
}

void LabelNoiseTransform::Apply(StreamSample* sample, int64_t num_classes,
                                util::Rng* rng) {
  if (num_classes < 2 || p_ <= 0.0) return;
  if (!rng->Bernoulli(static_cast<float>(p_))) return;
  // Uniform over the other classes: draw from [0, C-2] and skip the current
  // observed label.
  int64_t draw = rng->UniformInt(0, num_classes - 2);
  if (draw >= sample->observed_label) ++draw;
  sample->observed_label = draw;
}

void CorruptTransform::Apply(StreamSample* sample, int64_t num_classes,
                             util::Rng* rng) {
  (void)num_classes;
  if (burst_remaining_ <= 0) {
    if (p_ <= 0.0 || !rng->Bernoulli(static_cast<float>(p_))) return;
    burst_remaining_ = burst_length_;
  }
  --burst_remaining_;
  int64_t dim = static_cast<int64_t>(sample->features.size());
  if (dim == 0) return;
  for (float& v : sample->features) {
    v += rng->Normal(0.0f, static_cast<float>(strength_));
  }
  int64_t span = static_cast<int64_t>(occlusion_ * static_cast<double>(dim));
  if (span > 0) {
    int64_t start = rng->UniformInt(0, dim - 1);
    for (int64_t i = 0; i < span; ++i) {
      sample->features[(start + i) % dim] = 0.0f;
    }
  }
}

void CorruptTransform::Serialize(io::BufferWriter* out) const {
  out->WriteI64(burst_remaining_);
}

util::Status CorruptTransform::Deserialize(io::BufferReader* in) {
  int64_t remaining = 0;
  EDSR_RETURN_NOT_OK(in->ReadI64(&remaining));
  if (remaining < 0 || remaining > burst_length_) {
    return util::Status::IoError("corrupt: burst counter out of range");
  }
  burst_remaining_ = remaining;
  return util::Status::OK();
}

}  // namespace edsr::stream

namespace edsr::util {

template <>
const SpecRegistry<stream::StreamTransform>&
SpecRegistry<stream::StreamTransform>::Global() {
  using Made = Result<std::unique_ptr<stream::StreamTransform>>;
  static const SpecRegistry registry(
      "stream transform",
      {{"imbalance",
        [](SpecParams& params) -> Made {
          double alpha = params.GetDouble("alpha", 1.5);
          EDSR_RETURN_NOT_OK(params.Finish());
          if (alpha < 0.0) {
            return Status::InvalidArgument("imbalance: alpha must be >= 0");
          }
          return Made(std::make_unique<stream::ImbalanceTransform>(alpha));
        }},
       {"label_noise",
        [](SpecParams& params) -> Made {
          double p = params.GetDouble("p", 0.1);
          EDSR_RETURN_NOT_OK(params.Finish());
          if (p < 0.0 || p > 1.0) {
            return Status::InvalidArgument(
                "label_noise: p must be in [0, 1]");
          }
          return Made(std::make_unique<stream::LabelNoiseTransform>(p));
        }},
       {"corrupt", [](SpecParams& params) -> Made {
          double p = params.GetDouble("p", 0.05);
          double strength = params.GetDouble("strength", 0.5);
          int64_t burst = params.GetInt("burst", 4);
          double occlusion = params.GetDouble("occlusion", 0.25);
          EDSR_RETURN_NOT_OK(params.Finish());
          if (p < 0.0 || p > 1.0) {
            return Status::InvalidArgument("corrupt: p must be in [0, 1]");
          }
          if (strength < 0.0) {
            return Status::InvalidArgument("corrupt: strength must be >= 0");
          }
          if (burst < 1) {
            return Status::InvalidArgument("corrupt: burst must be >= 1");
          }
          if (occlusion < 0.0 || occlusion > 1.0) {
            return Status::InvalidArgument(
                "corrupt: occlusion must be in [0, 1]");
          }
          return Made(std::make_unique<stream::CorruptTransform>(
              p, strength, burst, occlusion));
        }}});
  return registry;
}

}  // namespace edsr::util
