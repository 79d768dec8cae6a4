#include "common/logging.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>

namespace mroam::common {

namespace {

std::atomic<LogLevel> g_min_level{LogLevel::kInfo};

/// Routes MROAM_LOG_LEVEL into g_min_level once at process start, before
/// main. An unparsable value keeps the kInfo default and says so on
/// stderr (it cannot use MROAM_LOG: the chosen level is what's in doubt).
[[maybe_unused]] const bool g_env_level_applied = [] {
  const char* text = std::getenv("MROAM_LOG_LEVEL");
  if (text == nullptr || text[0] == '\0') return false;
  LogLevel level = LogLevel::kInfo;
  if (ParseLogLevel(text, &level)) {
    g_min_level.store(level, std::memory_order_relaxed);
    return true;
  }
  std::fprintf(stderr,
               "mroam: ignoring invalid MROAM_LOG_LEVEL=\"%s\" "
               "(want debug|info|warning|error)\n",
               text);
  return false;
}();

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

LogLevel MinLogLevel() { return g_min_level.load(std::memory_order_relaxed); }

void SetMinLogLevel(LogLevel level) {
  g_min_level.store(level, std::memory_order_relaxed);
}

bool ParseLogLevel(std::string_view text, LogLevel* level) {
  std::string lower(text);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "debug") {
    *level = LogLevel::kDebug;
  } else if (lower == "info") {
    *level = LogLevel::kInfo;
  } else if (lower == "warning" || lower == "warn") {
    *level = LogLevel::kWarning;
  } else if (lower == "error") {
    *level = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) {
  stream_ << "[" << LevelName(level) << " " << Basename(file) << ":" << line
          << "] ";
}

LogMessage::~LogMessage() { std::cerr << stream_.str() << "\n"; }

FatalLogMessage::FatalLogMessage(const char* file, int line) {
  stream_ << "[F " << Basename(file) << ":" << line << "] ";
}

FatalLogMessage::~FatalLogMessage() {
  std::cerr << stream_.str() << std::endl;
  std::abort();
}

}  // namespace internal

}  // namespace mroam::common
