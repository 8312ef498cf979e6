#include "src/util/logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace edsr::util {

namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

// Initial threshold comes from EDSR_LOG_LEVEL (debug|info|warning|error,
// case-insensitive); unset or unrecognized values keep the kInfo default.
LogLevel InitialLevel() {
  const char* env = std::getenv("EDSR_LOG_LEVEL");
  if (env == nullptr) return LogLevel::kInfo;
  auto matches = [env](const char* name) {
    const char* p = env;
    const char* q = name;
    while (*p != '\0' && *q != '\0') {
      char a = *p >= 'A' && *p <= 'Z' ? static_cast<char>(*p - 'A' + 'a') : *p;
      if (a != *q) return false;
      ++p;
      ++q;
    }
    return *p == '\0' && *q == '\0';
  };
  if (matches("debug")) return LogLevel::kDebug;
  if (matches("info")) return LogLevel::kInfo;
  if (matches("warning") || matches("warn")) return LogLevel::kWarning;
  if (matches("error")) return LogLevel::kError;
  return LogLevel::kInfo;
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

LogLevel GetLogLevel() {
  static const LogLevel level = InitialLevel();
  return level;
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(level >= GetLogLevel()), level_(level) {
  if (enabled_) {
    std::time_t now = std::time(nullptr);
    std::tm tm_buf{};
    localtime_r(&now, &tm_buf);
    char stamp[32];
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%S", &tm_buf);
    out_ << "[" << stamp << " " << LevelName(level) << " " << Basename(file)
         << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    out_ << "\n";
    // One fwrite per message so concurrent loggers interleave by line, not
    // by character (stderr is unbuffered; fwrite is atomic per POSIX).
    std::string text = out_.str();
    std::fwrite(text.data(), 1, text.size(), stderr);
  }
  (void)level_;
}

}  // namespace edsr::util
