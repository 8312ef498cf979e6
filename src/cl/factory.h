// Name-based strategy construction for the experiment harnesses.
#ifndef EDSR_SRC_CL_FACTORY_H_
#define EDSR_SRC_CL_FACTORY_H_

#include <memory>
#include <string>

#include "src/cl/strategy.h"

namespace edsr::cl {

// Recognized names: "finetune", "si", "der", "lump", "cassle", "edsr",
// plus EDSR ablation variants:
//   "edsr-css" / "edsr-dis"        — replay-loss modes (Table IV),
//   "edsr-random" / "edsr-distant" / "edsr-kmeans" / "edsr-minvar"
//                                  — selection methods (Table V),
//   "edsr-norm" / "edsr-logdet"    — entropy scoring modes (ablation).
// Returns nullptr for any other name.
std::unique_ptr<ContinualStrategy> MakeStrategy(const std::string& name,
                                                const StrategyContext& context);

}  // namespace edsr::cl

#endif  // EDSR_SRC_CL_FACTORY_H_
