// Command-line helpers shared by the example programs.
#ifndef EDSR_EXAMPLES_CLI_H_
#define EDSR_EXAMPLES_CLI_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/cl/retrieval.h"
#include "src/cl/selection.h"
#include "src/data/synthetic.h"
#include "src/stream/transform.h"
#include "src/stream/trigger.h"

// `--name value` and `--name=value`; advances *i past a consumed value.
inline bool ParseFlag(int argc, char** argv, int* i, const char* name,
                      std::string* out) {
  const char* arg = argv[*i];
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  if (arg[len] == '\0' && *i + 1 < argc) {
    *out = argv[++*i];
    return true;
  }
  return false;
}

// An integer flag's value; `fallback` when the flag was not given.
inline int64_t ToInt(const std::string& flag, int64_t fallback) {
  return flag.empty() ? fallback : std::strtoll(flag.c_str(), nullptr, 10);
}

// The non-empty items of a `sep`-separated list flag.
inline std::vector<std::string> Split(const std::string& list, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= list.size()) {
    size_t pos = list.find(sep, start);
    std::string item = list.substr(
        start, pos == std::string::npos ? std::string::npos : pos - start);
    if (!item.empty()) out.push_back(item);
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return out;
}

// `--list`: every string-keyed registry a spec flag can name.
inline void PrintRegistries() {
  using namespace edsr;
  auto print = [](const char* title, const std::vector<std::string>& names) {
    std::printf("%s:\n", title);
    for (const std::string& name : names) std::printf("  %s\n", name.c_str());
  };
  print("selectors", cl::SelectorRegistry::Global().Names());
  print("retrieval policies", cl::RetrievalRegistry::Global().Names());
  print("stream transforms", stream::StreamRegistry::Global().Names());
  print("cycle triggers", stream::TriggerRegistry::Global().Names());
  print("image presets", data::ImagePresetNames());
}

#endif  // EDSR_EXAMPLES_CLI_H_
