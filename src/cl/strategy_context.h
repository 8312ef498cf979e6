// StrategyContext: the experiment configuration shared by every continual
// learning strategy (RocksDB-style options struct).
#ifndef EDSR_SRC_CL_STRATEGY_CONTEXT_H_
#define EDSR_SRC_CL_STRATEGY_CONTEXT_H_

#include <cstdint>
#include <string>

#include "src/ssl/encoder.h"
#include "src/ssl/losses.h"

namespace edsr::cl {

struct StrategyContext {
  ssl::EncoderConfig encoder;
  ssl::CsslLossKind loss_kind = ssl::CsslLossKind::kSimSiam;

  // Per-increment optimization.
  int64_t epochs = 8;
  int64_t batch_size = 32;
  float lr = 0.05f;
  float momentum = 0.9f;
  float weight_decay = 5e-4f;
  bool use_adam = false;  // paper: SGD for images, Adam for tabular
  float adam_lr = 1e-3f;

  // Memory (methods that store data).
  int64_t memory_per_task = 32;
  int64_t replay_batch_size = 16;
  // Registry specs consumed by memory strategies ("name[:key=value,...]",
  // see cl/selection.h and cl/retrieval.h). selector_spec empty = the
  // strategy's own default write policy (EDSR: high-entropy); retrieval_spec
  // picks how replay batches are drawn from the buffer.
  std::string selector_spec;
  std::string retrieval_spec = "uniform";

  uint64_t seed = 0;
};

}  // namespace edsr::cl

#endif  // EDSR_SRC_CL_STRATEGY_CONTEXT_H_
