#include "src/cl/factory.h"

#include "src/cl/cassle.h"
#include "src/cl/der.h"
#include "src/cl/lump.h"
#include "src/cl/si.h"
#include "src/core/edsr.h"

namespace edsr::cl {

namespace {
// Selector spec behind each Table-V variant name; all construction funnels
// through SelectorRegistry so variants and --selector flags stay one path.
std::unique_ptr<DataSelector> VariantSelector(const std::string& spec) {
  util::Result<std::unique_ptr<DataSelector>> selector =
      SelectorRegistry::Global().Create(spec);
  return std::move(selector).ValueOrDie();
}

std::unique_ptr<ContinualStrategy> MakeEdsrVariant(
    const std::string& name, const StrategyContext& context) {
  core::EdsrOptions options;
  if (name == "edsr") {
    return std::make_unique<core::Edsr>(context, options);
  }
  if (name == "edsr-css" || name == "edsr-dis") {
    options.replay_mode = name == "edsr-css" ? core::ReplayLossMode::kCss
                                             : core::ReplayLossMode::kDis;
    return std::make_unique<core::Edsr>(
        context, options, VariantSelector("high-entropy"), name);
  }
  if (name == "edsr-random" || name == "edsr-distant" ||
      name == "edsr-kmeans" || name == "edsr-minvar") {
    return std::make_unique<core::Edsr>(
        context, options, VariantSelector(name.substr(sizeof("edsr-") - 1)),
        name);
  }
  if (name == "edsr-norm" || name == "edsr-logdet") {
    return std::make_unique<core::Edsr>(
        context, options,
        VariantSelector(name == "edsr-norm" ? "high-entropy:mode=norm"
                                            : "high-entropy:mode=logdet"),
        name);
  }
  return nullptr;
}
}  // namespace

std::unique_ptr<ContinualStrategy> MakeStrategy(
    const std::string& name, const StrategyContext& context) {
  if (name == "finetune") return std::make_unique<Finetune>(context);
  if (name == "si") return std::make_unique<Si>(context);
  if (name == "der") return std::make_unique<Der>(context);
  if (name == "lump") return std::make_unique<Lump>(context);
  if (name == "cassle") return std::make_unique<Cassle>(context);
  return MakeEdsrVariant(name, context);
}

}  // namespace edsr::cl
