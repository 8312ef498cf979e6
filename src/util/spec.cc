#include "src/util/spec.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace edsr::util {

Result<SpecParams> SpecParams::Parse(const std::string& spec) {
  SpecParams params;
  size_t colon = spec.find(':');
  params.name_ = spec.substr(0, colon);
  if (params.name_.empty()) {
    return Status::InvalidArgument("empty name in spec \"" + spec + "\"");
  }
  if (colon == std::string::npos) return params;
  std::string rest = spec.substr(colon + 1);
  size_t start = 0;
  while (start <= rest.size()) {
    size_t comma = rest.find(',', start);
    std::string pair = rest.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!pair.empty()) {
      size_t eq = pair.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size()) {
        return Status::InvalidArgument(
            "malformed parameter \"" + pair + "\" in spec \"" + spec +
            "\" (expected key=value)");
      }
      std::string key = pair.substr(0, eq);
      for (const auto& [seen, value] : params.entries_) {
        if (seen == key) {
          return Status::InvalidArgument("repeated parameter \"" + key +
                                         "\" in spec \"" + spec + "\"");
        }
      }
      params.entries_.emplace_back(std::move(key), pair.substr(eq + 1));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  params.consumed_.assign(params.entries_.size(), false);
  return params;
}

const std::string* SpecParams::Find(const std::string& key) {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].first == key) {
      consumed_[i] = true;
      return &entries_[i].second;
    }
  }
  return nullptr;
}

int64_t SpecParams::GetInt(const std::string& key, int64_t fallback) {
  const std::string* value = Find(key);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  long long parsed = std::strtoll(value->c_str(), &end, 10);
  const char* problem = nullptr;
  // Parse never keeps an empty value, so this also catches "no digits".
  if (end != value->c_str() + value->size()) {
    problem = "is not an integer";
  } else if (errno == ERANGE) {
    // strtoll clamps to the int64 limits on overflow.
    problem = "is out of the int64 range";
  }
  if (problem == nullptr) return static_cast<int64_t>(parsed);
  if (error_.empty()) {
    error_ = "parameter " + key + "=" + *value + " " + problem;
  }
  return fallback;
}

double SpecParams::GetDouble(const std::string& key, double fallback) {
  const std::string* value = Find(key);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  double parsed = std::strtod(value->c_str(), &end);
  const char* problem = nullptr;
  if (end != value->c_str() + value->size()) {
    problem = "is not a number";
  } else if (!std::isfinite(parsed)) {
    // strtod accepts nan and inf, and overflows to inf; NaN would pass
    // every factory's range test.
    problem = "is not a finite number";
  }
  if (problem == nullptr) return parsed;
  if (error_.empty()) {
    error_ = "parameter " + key + "=" + *value + " " + problem;
  }
  return fallback;
}

std::string SpecParams::GetString(const std::string& key,
                                  const std::string& fallback) {
  const std::string* value = Find(key);
  return value != nullptr ? *value : fallback;
}

Status SpecParams::Finish() const {
  if (!error_.empty()) {
    return Status::InvalidArgument(name_ + ": " + error_);
  }
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (!consumed_[i]) {
      return Status::InvalidArgument(name_ + ": unknown parameter \"" +
                                     entries_[i].first + "\"");
    }
  }
  return Status::OK();
}

namespace internal {

void CheckUniqueNames(const std::string& kind,
                      const std::vector<std::string>& names) {
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      EDSR_CHECK_NE(names[i], names[j])
          << kind << " \"" << names[i] << "\" registered twice";
    }
  }
}

Status UnknownName(const std::string& kind, const std::string& name,
                   const std::vector<std::string>& known) {
  std::string list;
  for (const std::string& entry : known) {
    if (!list.empty()) list += ", ";
    list += entry;
  }
  return Status::InvalidArgument("unknown " + kind + " \"" + name +
                                 "\"; registered: " + list);
}

}  // namespace internal

}  // namespace edsr::util
