#include "src/cl/strategy.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/data/batching.h"
#include "src/obs/trace.h"
#include "src/tensor/ops.h"
#include "src/util/logging.h"

namespace edsr::cl {

using tensor::Tensor;

ContinualStrategy::ContinualStrategy(const StrategyContext& context,
                                     std::string name, bool keeps_memory)
    : context_(context),
      rng_(context.seed),
      memory_(keeps_memory ? context.memory_per_task : 0),
      name_(std::move(name)),
      retrieval_(keeps_memory ? MakeRetrievalOrDie(context.retrieval_spec)
                              : nullptr) {
  encoder_ = ssl::Encoder::Make(context.encoder, &rng_);
  loss_ = ssl::MakeCsslLoss(context.loss_kind, context.encoder.representation_dim,
                            &rng_);
}

Tensor ContinualStrategy::ComputeBatchLoss(const data::Task& task,
                                           const std::vector<int64_t>& indices,
                                           const Tensor& view1,
                                           const Tensor& view2) {
  (void)task;
  (void)indices;
  Tensor z1 = encoder_->Forward(view1);
  Tensor z2 = encoder_->Forward(view2);
  Tensor loss = loss_->Loss(z1, z2);
  if (collecting_telemetry()) RecordLossComponent("L_css", loss.item());
  return loss;
}

void ContinualStrategy::RecordLossComponent(const char* key, double value) {
  for (ComponentSum& component : epoch_components_) {
    if (component.key == key) {
      component.sum += value;
      component.count += 1;
      return;
    }
  }
  epoch_components_.push_back(ComponentSum{key, value, 1});
}

void ContinualStrategy::RecordIncrementStat(const char* key, double value) {
  for (auto& stat : increment_stats_) {
    if (stat.first == key) {
      stat.second = value;
      return;
    }
  }
  increment_stats_.emplace_back(key, value);
}

std::vector<std::pair<std::string, double>>
ContinualStrategy::TakeIncrementStats() {
  std::vector<std::pair<std::string, double>> out;
  out.swap(increment_stats_);
  return out;
}

Tensor ContinualStrategy::View(const data::Dataset& dataset,
                               const std::vector<int64_t>& indices) {
  EDSR_CHECK(views_ != nullptr) << "View called outside LearnIncrement";
  return views_->View(dataset, indices, &rng_);
}

Tensor ContinualStrategy::ViewOfRaw(const Tensor& raw,
                                    const data::ImageGeometry& geometry) {
  EDSR_CHECK(views_ != nullptr) << "ViewOfRaw called outside LearnIncrement";
  EDSR_CHECK_EQ(raw.dim(), 2);
  int64_t n = raw.shape()[0];
  std::vector<int64_t> labels(n, 0);
  data::Dataset wrapper("raw", raw.data(), labels, raw.shape()[1],
                        /*num_classes=*/1, geometry);
  std::vector<int64_t> all(n);
  for (int64_t i = 0; i < n; ++i) all[i] = i;
  return views_->View(wrapper, all, &rng_);
}

std::vector<Tensor> ContinualStrategy::TrainedParameters() {
  std::vector<Tensor> params = encoder_->Parameters();
  for (const Tensor& p : loss_->Parameters()) params.push_back(p);
  for (const Tensor& p : ExtraParameters()) params.push_back(p);
  return params;
}

void ContinualStrategy::BuildOptimizer(const std::vector<Tensor>& params) {
  if (context_.use_adam) {
    optim::AdamOptions options;
    options.lr = context_.adam_lr;
    optimizer_ = std::make_unique<optim::Adam>(params, options);
  } else {
    optim::SgdOptions options;
    options.lr = context_.lr;
    options.momentum = context_.momentum;
    options.weight_decay = context_.weight_decay;
    optimizer_ = std::make_unique<optim::Sgd>(params, options);
  }
}

void ContinualStrategy::BeginCycle(const data::Task& task) {
  if (encoder_->has_input_heads()) encoder_->SetActiveHead(task.task_id);
  views_ = augment::ViewProvider::ForDataset(task.train);
  encoder_->SetTraining(true);
  loss_->SetTraining(true);
  OnIncrementStart(task);
  cycle_params_ = TrainedParameters();
  BuildOptimizer(cycle_params_);
}

void ContinualStrategy::EndCycle(const data::Task& task) {
  OnIncrementEnd(task);
  ++increments_seen_;
  cycle_params_.clear();
}

void ContinualStrategy::LearnIncrement(const data::Task& task) {
  EDSR_TRACE_SPAN("learn_increment");
  EDSR_CHECK_GT(task.train.size(), 1)
      << "increment " << task.task_id << " too small to train on";
  BeginCycle(task);

  data::BatchIterator iterator(task.train.size(), context_.batch_size, &rng_);
  std::vector<int64_t> batch;
  for (int64_t epoch = 0; epoch < context_.epochs; ++epoch) {
    EDSR_TRACE_SPAN("epoch");
    iterator.Reset();
    epoch_components_.clear();
    double epoch_loss = 0.0;
    int64_t batches = 0;
    while (iterator.Next(&batch)) {
      epoch_loss += TrainOnBatch(task, batch);
      ++batches;
    }
    EDSR_LOG(Debug) << name_ << " task " << task.task_id << " epoch " << epoch
                    << " loss " << (batches > 0 ? epoch_loss / batches : 0.0);
    if (collecting_telemetry()) {
      obs::Json record = obs::Json::Object();
      record.Set("record", "epoch");
      record.Set("strategy", name_);
      record.Set("increment", task.task_id);
      record.Set("epoch", epoch);
      record.Set("batches", batches);
      record.Set("loss", batches > 0 ? epoch_loss / batches : 0.0);
      obs::Json components = obs::Json::Object();
      for (const ComponentSum& component : epoch_components_) {
        components.Set(component.key, component.count > 0
                                          ? component.sum / component.count
                                          : 0.0);
      }
      record.Set("loss_components", std::move(components));
      run_logger_->Write(record);
    }
  }

  EndCycle(task);
}

double ContinualStrategy::TrainOnBatch(const data::Task& task,
                                       const std::vector<int64_t>& batch) {
  EDSR_TRACE_SPAN("batch");
  Tensor view1 = View(task.train, batch);
  Tensor view2 = View(task.train, batch);
  optimizer_->ZeroGrad();
  Tensor batch_loss = ComputeBatchLoss(task, batch, view1, view2);
  batch_loss.Backward();
  constexpr float kGradClip = 10.0f;  // global L2 norm bound
  optim::ClipGradNorm(cycle_params_, kGradClip);
  BeforeOptimizerStep();
  optimizer_->Step();
  AfterOptimizerStep();
  return batch_loss.item();
}

void ContinualStrategy::StreamBeginCycle(const data::Task& task) {
  EDSR_TRACE_SPAN("stream_begin_cycle");
  EDSR_CHECK_GT(task.train.size(), 0)
      << "stream cycle " << task.task_id << " opened with no samples";
  BeginCycle(task);
}

double ContinualStrategy::StreamTrainBatch(const data::Task& task) {
  EDSR_CHECK(optimizer_ != nullptr && !cycle_params_.empty())
      << "StreamTrainBatch outside an open cycle (call StreamBeginCycle)";
  EDSR_CHECK_GT(task.train.size(), 1)
      << "micro-batch too small to train on (needs >= 2 samples)";
  std::vector<int64_t> batch(task.train.size());
  std::iota(batch.begin(), batch.end(), 0);
  return TrainOnBatch(task, batch);
}

void ContinualStrategy::StreamEndCycle(const data::Task& task) {
  EDSR_TRACE_SPAN("stream_end_cycle");
  EDSR_CHECK(!cycle_params_.empty())
      << "StreamEndCycle outside an open cycle (call StreamBeginCycle)";
  EndCycle(task);
}

std::vector<double> ContinualStrategy::AugmentationVariance(
    const data::Task& task) {
  EDSR_TRACE_SPAN("augmentation_variance");
  int64_t n = task.train.size();
  int64_t d = encoder_->representation_dim();
  constexpr int64_t kViews = 4;
  std::vector<double> sum(n * d, 0.0);
  std::vector<double> sum_sq(n * d, 0.0);
  // Variance scoring only reads representations; forwards stay graph-free.
  tensor::NoGradGuard no_grad;
  bool was_training = encoder_->training();
  encoder_->SetTraining(false);
  std::vector<int64_t> all(n);
  for (int64_t i = 0; i < n; ++i) all[i] = i;
  for (int64_t v = 0; v < kViews; ++v) {
    for (int64_t start = 0; start < n; start += 64) {
      int64_t count = std::min<int64_t>(64, n - start);
      std::vector<int64_t> chunk(all.begin() + start,
                                 all.begin() + start + count);
      Tensor reps = encoder_->Forward(View(task.train, chunk));
      for (int64_t k = 0; k < count; ++k) {
        for (int64_t j = 0; j < d; ++j) {
          double value = reps.at(k, j);
          sum[(start + k) * d + j] += value;
          sum_sq[(start + k) * d + j] += value * value;
        }
      }
    }
  }
  encoder_->SetTraining(was_training);
  std::vector<double> variance(n, 0.0);
  for (int64_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      double mean = sum[i * d + j] / kViews;
      acc += std::max(0.0, sum_sq[i * d + j] / kViews - mean * mean);
    }
    variance[i] = acc / d;
  }
  return variance;
}

eval::RepresentationMatrix ContinualStrategy::GradientFeatures(
    const data::Task& task) {
  EDSR_TRACE_SPAN("gradient_features");
  int64_t n = task.train.size();
  int64_t d = encoder_->representation_dim();
  eval::RepresentationMatrix features;
  features.n = n;
  features.d = d;
  features.values.assign(n * d, 0.0f);
  bool was_training = encoder_->training();
  encoder_->SetTraining(true);
  std::vector<int64_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  for (int64_t start = 0; start < n; start += 64) {
    int64_t count = std::min<int64_t>(64, n - start);
    std::vector<int64_t> chunk(all.begin() + start,
                               all.begin() + start + count);
    Tensor view1 = View(task.train, chunk);
    Tensor view2 = View(task.train, chunk);
    Tensor z1 = encoder_->Forward(view1);
    Tensor z2 = encoder_->Forward(view2);
    Tensor loss = loss_->Loss(z1, z2);
    loss.Backward();
    // z1 is an interior graph node, so Backward accumulated ∂L/∂z1 on it.
    const std::vector<float>& grad = z1.grad();
    EDSR_CHECK_EQ(grad.size(), static_cast<size_t>(count * d));
    // The loss averages over the chunk; scale back so the last (smaller)
    // chunk's rows are comparable to the full chunks'.
    float scale = static_cast<float>(count);
    for (int64_t k = 0; k < count; ++k) {
      for (int64_t j = 0; j < d; ++j) {
        features.values[(start + k) * d + j] = grad[k * d + j] * scale;
      }
    }
  }
  // The probing backwards accumulated gradients on the trained parameters;
  // clear them so the next optimizer step starts clean.
  for (Tensor& param : TrainedParameters()) param.ZeroGrad();
  encoder_->SetTraining(was_training);
  return features;
}

eval::RepresentationMatrix ContinualStrategy::MemoryRepresentations(
    const MemoryBuffer& memory) {
  eval::RepresentationMatrix reps;
  reps.n = memory.size();
  reps.d = encoder_->representation_dim();
  reps.values.assign(reps.n * reps.d, 0.0f);
  if (memory.empty()) return reps;
  tensor::NoGradGuard no_grad;
  bool was_training = encoder_->training();
  encoder_->SetTraining(false);
  std::vector<int64_t> all(memory.size());
  std::iota(all.begin(), all.end(), 0);
  // Heterogeneous buffers run each source increment through its own input
  // head (GatherFeatures requires homogeneous dims within a batch anyway).
  // A headless encoder runs the whole buffer in 64-row chunks: eval-mode
  // rows are independent, so any chunking gives the same bits.
  const bool headed = encoder_->has_input_heads();
  const std::vector<std::vector<int64_t>> groups =
      headed ? memory.GroupByTask(all)
             : std::vector<std::vector<int64_t>>{std::move(all)};
  for (const std::vector<int64_t>& group : groups) {
    if (group.empty()) continue;
    if (headed) encoder_->SetActiveHead(memory.entry(group.front()).task_id);
    for (size_t start = 0; start < group.size(); start += 64) {
      size_t count = std::min<size_t>(64, group.size() - start);
      std::vector<int64_t> chunk(group.begin() + start,
                                 group.begin() + start + count);
      Tensor out = encoder_->Forward(memory.GatherFeatures(chunk));
      const float* rows = out.data().data();
      for (size_t k = 0; k < count; ++k) {
        std::copy(rows + k * reps.d, rows + (k + 1) * reps.d,
                  reps.values.begin() + chunk[k] * reps.d);
      }
    }
  }
  encoder_->SetTraining(was_training);
  return reps;
}

std::vector<int64_t> ContinualStrategy::DrawReplay(int64_t k,
                                                   int64_t restore_head) {
  EDSR_CHECK(retrieval_ != nullptr) << name_ << " keeps no replay memory";
  RetrievalContext context;
  context.memory = &memory_;
  eval::RepresentationMatrix current;
  if (retrieval_->needs_current_representations() && !memory_.empty() &&
      k > 0 && k < memory_.size()) {
    EDSR_TRACE_SPAN("retrieval_representations");
    current = MemoryRepresentations(memory_);
    context.current = &current;
    if (restore_head >= 0 && encoder_->has_input_heads()) {
      encoder_->SetActiveHead(restore_head);
    }
  }
  return DrawRetrieval(retrieval_.get(), context, k, &rng_);
}

util::Status ContinualStrategy::SaveTo(io::ContainerWriter* writer) {
  EDSR_CHECK(writer != nullptr);
  io::BufferWriter meta;
  meta.WriteString(name_);
  meta.WriteI64(increments_seen_);
  writer->AddSection("strategy/meta", &meta);

  io::BufferWriter encoder_state;
  encoder_->SerializeState(&encoder_state);
  writer->AddSection("strategy/encoder", &encoder_state);

  io::BufferWriter loss_state;
  if (nn::Module* m = loss_->module()) m->SerializeState(&loss_state);
  writer->AddSection("strategy/loss", &loss_state);

  io::BufferWriter rng_state;
  rng_state.WriteString(rng_.SerializeState());
  writer->AddSection("strategy/rng", &rng_state);

  io::BufferWriter optimizer_state;
  optimizer_state.WriteU8(optimizer_ != nullptr ? 1 : 0);
  if (optimizer_ != nullptr) optimizer_->Serialize(&optimizer_state);
  writer->AddSection("strategy/optimizer", &optimizer_state);

  if (retrieval_ != nullptr) {
    io::BufferWriter memory_state;
    memory_.Serialize(&memory_state);
    writer->AddSection("strategy/memory", &memory_state);
  }

  io::BufferWriter extra;
  SaveExtra(&extra);
  // Name-tagged, so a checkpoint written under one policy can never
  // silently feed another.
  if (retrieval_ != nullptr) io::SaveNamedState(*retrieval_, &extra);
  writer->AddSection("strategy/extra", &extra);
  return util::Status::OK();
}

util::Status ContinualStrategy::LoadFrom(const io::ContainerReader& reader) {
  std::vector<uint8_t> bytes;
  EDSR_RETURN_NOT_OK(reader.ReadSection("strategy/meta", &bytes));
  io::BufferReader meta(bytes);
  std::string saved_name;
  int64_t increments_seen = 0;
  EDSR_RETURN_NOT_OK(meta.ReadString(&saved_name));
  EDSR_RETURN_NOT_OK(meta.ReadI64(&increments_seen));
  EDSR_RETURN_NOT_OK(meta.ExpectEnd());
  if (saved_name != name_) {
    return util::Status::InvalidArgument("checkpoint was written by strategy " +
                                         saved_name + ", not " + name_);
  }
  if (increments_seen < 0) {
    return util::Status::IoError("negative increment counter in checkpoint");
  }

  EDSR_RETURN_NOT_OK(reader.ReadSection("strategy/encoder", &bytes));
  {
    io::BufferReader in(bytes);
    EDSR_RETURN_NOT_OK(encoder_->DeserializeState(&in));
    EDSR_RETURN_NOT_OK(in.ExpectEnd());
  }

  EDSR_RETURN_NOT_OK(reader.ReadSection("strategy/loss", &bytes));
  {
    io::BufferReader in(bytes);
    if (nn::Module* m = loss_->module()) {
      EDSR_RETURN_NOT_OK(m->DeserializeState(&in));
    }
    EDSR_RETURN_NOT_OK(in.ExpectEnd());
  }

  EDSR_RETURN_NOT_OK(reader.ReadSection("strategy/rng", &bytes));
  {
    io::BufferReader in(bytes);
    std::string engine_state;
    EDSR_RETURN_NOT_OK(in.ReadString(&engine_state));
    EDSR_RETURN_NOT_OK(in.ExpectEnd());
    EDSR_RETURN_NOT_OK(rng_.DeserializeState(engine_state));
  }

  // Read before the extras: a checkpoint without this section fails here,
  // naming it, and never reaches LoadExtra with a payload holding a buffer.
  if (retrieval_ != nullptr) {
    EDSR_RETURN_NOT_OK(reader.ReadSection("strategy/memory", &bytes));
    io::BufferReader in(bytes);
    EDSR_RETURN_NOT_OK(memory_.Deserialize(&in));
    EDSR_RETURN_NOT_OK(in.ExpectEnd());
    // A row that does not fit the encoder would abort the first replay.
    EDSR_RETURN_NOT_OK(memory_.CheckFits(context_.encoder));
    // Task ids count increments from 0. A row from an increment not yet
    // learned would abort the resumed run when that increment stores its
    // own rows.
    for (int64_t i = 0; i < memory_.size(); ++i) {
      const int64_t task_id = memory_.entry(i).task_id;
      if (task_id < 0 || task_id >= increments_seen) {
        return util::Status::IoError(
            "memory entry " + std::to_string(i) + " has task id " +
            std::to_string(task_id) + ", but the checkpoint has learned " +
            std::to_string(increments_seen) + " increments");
      }
    }
  }

  // Extras restore the teacher/projector before the optimizer is rebuilt:
  // ExtraParameters() must already see the restored modules so the moment
  // buffers line up with the optimizer order of LearnIncrement.
  EDSR_RETURN_NOT_OK(reader.ReadSection("strategy/extra", &bytes));
  {
    io::BufferReader in(bytes);
    EDSR_RETURN_NOT_OK(LoadExtra(&in));
    if (retrieval_ != nullptr) {
      EDSR_RETURN_NOT_OK(io::LoadNamedState(retrieval_.get(), &in));
    }
    EDSR_RETURN_NOT_OK(in.ExpectEnd());
  }

  EDSR_RETURN_NOT_OK(reader.ReadSection("strategy/optimizer", &bytes));
  {
    io::BufferReader in(bytes);
    uint8_t has_optimizer = 0;
    EDSR_RETURN_NOT_OK(in.ReadU8(&has_optimizer));
    if (has_optimizer != 0) {
      BuildOptimizer(TrainedParameters());
      EDSR_RETURN_NOT_OK(optimizer_->Deserialize(&in));
    } else {
      optimizer_.reset();
    }
    EDSR_RETURN_NOT_OK(in.ExpectEnd());
  }

  increments_seen_ = increments_seen;
  return util::Status::OK();
}

}  // namespace edsr::cl
