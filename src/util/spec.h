// The "name[:key=value,...]" spec grammar and its one registry.
//
// Selectors, retrieval policies, cycle triggers and stream transforms are
// all built from spec strings such as "kmeans:iters=5" or
// "drift:threshold=0.02,min=64". SpecParams parses one spec; a
// SpecRegistry<T> maps its name to the factory of one built-in T. Each kind
// has one registry, spelled as an alias in its header
// (cl::SelectorRegistry, cl::RetrievalRegistry, stream::TriggerRegistry,
// stream::StreamRegistry); that header declares the Global() specialization
// and its .cc defines it as the kind's table of built-ins.
#ifndef EDSR_SRC_UTIL_SPEC_H_
#define EDSR_SRC_UTIL_SPEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace edsr::util {

// Parsed "name:key=value,..." spec. Getters mark their key consumed;
// Finish() fails on keys no getter asked about (catches typos) and on
// malformed values, so every factory rejects unknown parameters without
// per-factory bookkeeping.
class SpecParams {
 public:
  // Splits "name[:k=v,...]"; fails on empty names, malformed pairs or a
  // key given twice.
  static Result<SpecParams> Parse(const std::string& spec);

  const std::string& name() const { return name_; }
  // A base-10 integer that fits int64_t.
  int64_t GetInt(const std::string& key, int64_t fallback);
  // A finite number: nan, inf and overflowing values are malformed.
  double GetDouble(const std::string& key, double fallback);
  std::string GetString(const std::string& key, const std::string& fallback);
  // Unknown keys / malformed values accumulated by the getters; the message
  // names the key.
  Status Finish() const;

 private:
  const std::string* Find(const std::string& key);

  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;
  std::vector<bool> consumed_;
  std::string error_;
};

namespace internal {
// Aborts when a name appears twice in one table: two meanings for one spec
// string would silently change experiments.
void CheckUniqueNames(const std::string& kind,
                      const std::vector<std::string>& names);
// InvalidArgument naming the kind and listing every registered entry.
Status UnknownName(const std::string& kind, const std::string& name,
                   const std::vector<std::string>& known);
}  // namespace internal

// The table of built-in factories for one kind T, e.g. "selector".
template <typename T>
class SpecRegistry {
 public:
  using Factory = Result<std::unique_ptr<T>> (*)(SpecParams& params);

  SpecRegistry(std::string kind,
               std::vector<std::pair<std::string, Factory>> table)
      : kind_(std::move(kind)), table_(std::move(table)) {
    internal::CheckUniqueNames(kind_, Names());
  }

  // The kind's built-in table; declared per kind in its header.
  static const SpecRegistry& Global();

  // Builds a T from "name[:key=value,...]". Unknown names and unknown or
  // malformed parameters return InvalidArgument.
  Result<std::unique_ptr<T>> Create(const std::string& spec) const {
    Result<SpecParams> parsed = SpecParams::Parse(spec);
    if (!parsed.ok()) return parsed.status();
    SpecParams params = *parsed;
    for (const auto& [name, factory] : table_) {
      if (name == params.name()) return factory(params);
    }
    return internal::UnknownName(kind_, params.name(), Names());
  }

  // Names in table order.
  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    names.reserve(table_.size());
    for (const auto& entry : table_) names.push_back(entry.first);
    return names;
  }

 private:
  std::string kind_;
  std::vector<std::pair<std::string, Factory>> table_;
};

}  // namespace edsr::util

#endif  // EDSR_SRC_UTIL_SPEC_H_
