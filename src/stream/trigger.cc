#include "src/stream/trigger.h"

#include <memory>

namespace edsr::stream {

// ---- Triggers -------------------------------------------------------------

std::string CountTrigger::ShouldFire(
    const TriggerContext& context,
    const std::function<double()>& drift_probe) {
  (void)drift_probe;
  return context.samples_in_cycle >= n_ ? "count" : "";
}

std::string DriftTrigger::ShouldFire(
    const TriggerContext& context,
    const std::function<double()>& drift_probe) {
  if (context.samples_in_cycle >= max_samples_) return "max";
  if (context.samples_in_cycle < min_samples_) return "";
  if (context.micro_batches_in_cycle % check_every_ != 0) return "";
  double drift = drift_probe();
  if (drift < 0.0) return "";  // no anchors yet: wait for the max ceiling
  return drift >= threshold_ ? "drift" : "";
}

}  // namespace edsr::stream

namespace edsr::util {

template <>
const SpecRegistry<stream::CycleTrigger>&
SpecRegistry<stream::CycleTrigger>::Global() {
  using Made = Result<std::unique_ptr<stream::CycleTrigger>>;
  static const SpecRegistry registry(
      "cycle trigger",
      {{"count",
        [](SpecParams& params) -> Made {
          int64_t n = params.GetInt("n", 256);
          EDSR_RETURN_NOT_OK(params.Finish());
          if (n < 1) return Status::InvalidArgument("count: n must be >= 1");
          return Made(std::make_unique<stream::CountTrigger>(n));
        }},
       {"drift", [](SpecParams& params) -> Made {
          double threshold = params.GetDouble("threshold", 0.02);
          int64_t min_samples = params.GetInt("min", 64);
          int64_t max_samples = params.GetInt("max", 512);
          int64_t check_every = params.GetInt("check", 4);
          EDSR_RETURN_NOT_OK(params.Finish());
          if (threshold <= 0.0) {
            return Status::InvalidArgument("drift: threshold must be > 0");
          }
          if (min_samples < 0) {
            return Status::InvalidArgument("drift: min must be >= 0");
          }
          if (max_samples < 1 || max_samples < min_samples) {
            return Status::InvalidArgument(
                "drift: max must be >= 1 and >= min");
          }
          if (check_every < 1) {
            return Status::InvalidArgument("drift: check must be >= 1");
          }
          return Made(std::make_unique<stream::DriftTrigger>(
              threshold, min_samples, max_samples, check_every));
        }}});
  return registry;
}

}  // namespace edsr::util
