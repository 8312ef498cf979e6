#include "src/stream/source.h"

#include <utility>

#include "src/util/check.h"

namespace edsr::stream {

StreamSource::StreamSource(
    data::Dataset base,
    std::vector<std::unique_ptr<StreamTransform>> transforms, uint64_t seed)
    : base_(std::move(base)), transforms_(std::move(transforms)), rng_(seed) {
  EDSR_CHECK_GT(base_.size(), 0) << "stream source over an empty dataset";
  EDSR_CHECK_GT(base_.num_classes(), 0);
  class_indices_.assign(base_.num_classes(), {});
  for (int64_t i = 0; i < base_.size(); ++i) {
    class_indices_[base_.Label(i)].push_back(i);
  }
  class_weights_.assign(base_.num_classes(), 1.0f);
  for (int64_t c = 0; c < base_.num_classes(); ++c) {
    for (const auto& transform : transforms_) {
      class_weights_[c] *= transform->ClassWeight(c, base_.num_classes());
    }
    // A class with no samples can never be drawn, whatever the transforms
    // say (SplitByClasses-style subsets may leave empty classes).
    if (class_indices_[c].empty()) class_weights_[c] = 0.0f;
    EDSR_CHECK_GE(class_weights_[c], 0.0f)
        << "negative class weight from a transform";
  }
}

std::vector<StreamSample> StreamSource::NextBatch(int64_t n) {
  EDSR_CHECK_GT(n, 0);
  std::vector<StreamSample> batch;
  batch.reserve(n);
  for (int64_t s = 0; s < n; ++s) {
    int64_t cls = rng_.Categorical(class_weights_);
    const std::vector<int64_t>& rows = class_indices_[cls];
    int64_t row = rows[rng_.UniformInt(0, static_cast<int64_t>(rows.size()) -
                                              1)];
    StreamSample sample;
    sample.features.assign(base_.Row(row), base_.Row(row) + base_.dim());
    sample.label = base_.Label(row);
    sample.observed_label = sample.label;
    sample.source_index = row;
    for (const auto& transform : transforms_) {
      transform->Apply(&sample, base_.num_classes(), &rng_);
    }
    batch.push_back(std::move(sample));
    ++emitted_;
  }
  return batch;
}

void StreamSource::Serialize(io::BufferWriter* out) const {
  out->WriteString(rng_.SerializeState());
  out->WriteI64(emitted_);
  out->WriteU64(transforms_.size());
  for (const auto& transform : transforms_) {
    io::SaveNamedState(*transform, out);
  }
}

util::Status StreamSource::Deserialize(io::BufferReader* in) {
  std::string engine_state;
  EDSR_RETURN_NOT_OK(in->ReadString(&engine_state));
  int64_t emitted = 0;
  EDSR_RETURN_NOT_OK(in->ReadI64(&emitted));
  if (emitted < 0) {
    return util::Status::IoError("negative stream emission counter");
  }
  uint64_t count = 0;
  EDSR_RETURN_NOT_OK(in->ReadU64(&count));
  if (count != transforms_.size()) {
    return util::Status::InvalidArgument(
        "stream checkpoint has " + std::to_string(count) +
        " transform stages, source has " +
        std::to_string(transforms_.size()));
  }
  // Stage all reads before mutating any state so a corrupt payload leaves
  // the source untouched.
  util::Rng staged_rng;
  EDSR_RETURN_NOT_OK(staged_rng.DeserializeState(engine_state));
  for (const auto& transform : transforms_) {
    EDSR_RETURN_NOT_OK(io::LoadNamedState(transform.get(), in));
  }
  rng_ = staged_rng;
  emitted_ = emitted;
  return util::Status::OK();
}

util::Result<StreamSpec> ParseStreamSpec(const std::string& spec) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t bar = spec.find('|', start);
    parts.push_back(spec.substr(
        start, bar == std::string::npos ? std::string::npos : bar - start));
    if (bar == std::string::npos) break;
    start = bar + 1;
  }
  if (parts.empty() || parts[0].empty()) {
    return util::Status::InvalidArgument(
        "stream spec must start with an image preset "
        "(\"Preset|stage|stage...\"), got \"" +
        spec + "\"");
  }
  // Preset validation (no data generation — just the name lookup).
  util::Result<data::SyntheticImageConfig> preset =
      data::ImagePresetConfig(parts[0], /*seed=*/0);
  if (!preset.ok()) return preset.status();
  StreamSpec result;
  result.preset = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) {
    if (parts[i].empty()) {
      return util::Status::InvalidArgument("empty stream stage in \"" + spec +
                                           "\"");
    }
    util::Result<std::unique_ptr<StreamTransform>> probe =
        StreamRegistry::Global().Create(parts[i]);
    if (!probe.ok()) return probe.status();
    result.stages.push_back(parts[i]);
  }
  return result;
}

util::Result<StreamBundle> MakeStreamBundle(const std::string& spec,
                                            uint64_t seed) {
  util::Result<StreamSpec> parsed_result = ParseStreamSpec(spec);
  if (!parsed_result.ok()) return parsed_result.status();
  StreamSpec parsed = std::move(parsed_result).ValueOrDie();
  util::Result<data::SyntheticImageConfig> config =
      data::ImagePresetConfig(parsed.preset, seed);
  if (!config.ok()) return config.status();
  data::SyntheticImagePair pair = data::MakeSyntheticImageData(*config);
  std::vector<std::unique_ptr<StreamTransform>> transforms;
  for (const std::string& stage : parsed.stages) {
    util::Result<std::unique_ptr<StreamTransform>> transform =
        StreamRegistry::Global().Create(stage);
    if (!transform.ok()) return transform.status();
    transforms.push_back(std::move(transform).ValueOrDie());
  }
  StreamBundle bundle;
  bundle.preset = parsed.preset;
  bundle.id_train = pair.train;
  bundle.id_test = pair.test;
  // Decorrelated from the preset's generation seed, deterministic in the
  // run seed.
  bundle.source = std::make_unique<StreamSource>(
      std::move(pair.train), std::move(transforms), seed * 6151 + 11);
  return bundle;
}

}  // namespace edsr::stream
