// Minimal leveled logging to stderr.
#ifndef EDSR_SRC_UTIL_LOGGING_H_
#define EDSR_SRC_UTIL_LOGGING_H_

#include <iostream>
#include <sstream>
#include <string>

namespace edsr::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

// Global threshold, read once from EDSR_LOG_LEVEL; messages below it are
// dropped.
LogLevel GetLogLevel();

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) out_ << value;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream out_;
};

}  // namespace edsr::util

#define EDSR_LOG(level)                                      \
  ::edsr::util::LogMessage(::edsr::util::LogLevel::k##level, \
                           __FILE__, __LINE__)

#endif  // EDSR_SRC_UTIL_LOGGING_H_
