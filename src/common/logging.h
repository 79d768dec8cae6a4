#ifndef MROAM_COMMON_LOGGING_H_
#define MROAM_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string_view>

namespace mroam::common {

/// Severity levels for MROAM_LOG.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Returns the process-wide minimum level actually emitted by MROAM_LOG.
LogLevel MinLogLevel();

/// Sets the process-wide minimum log level (tests silence output with it).
void SetMinLogLevel(LogLevel level);

/// Parses "debug"/"info"/"warning"/"error" (any case; "warn" also
/// accepted) into `*level`. Returns false — leaving `*level` untouched —
/// for anything else. The MROAM_LOG_LEVEL environment variable is routed
/// through this at startup.
bool ParseLogLevel(std::string_view text, LogLevel* level);

namespace internal {

/// Accumulates one log line and emits it (with level prefix) on
/// destruction. MROAM_LOG makes one only for a level MinLogLevel() emits.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

/// Turns MROAM_LOG's streamed message into void, the type of its other
/// branch. `&` binds looser than `<<` and tighter than `?:`, so the whole
/// `<<` chain lands on the message's side.
struct LogVoidify {
  void operator&(std::ostream&) {}
};

/// LogMessage that aborts the process after emitting (for CHECK failures).
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line);
  [[noreturn]] ~FatalLogMessage();

  FatalLogMessage(const FatalLogMessage&) = delete;
  FatalLogMessage& operator=(const FatalLogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace internal

/// Streams one log line at `level` (Debug, Info, Warning or Error). Below
/// MinLogLevel() nothing is built and no `<<` operand is evaluated. The
/// macro is one expression, so `if (c) MROAM_LOG(Error) << x;` needs no
/// braces and takes no stray `else`.
#define MROAM_LOG(level)                                                \
  (::mroam::common::LogLevel::k##level < ::mroam::common::MinLogLevel()) \
      ? (void)0                                                         \
      : ::mroam::common::internal::LogVoidify() &                       \
            ::mroam::common::internal::LogMessage(                      \
                ::mroam::common::LogLevel::k##level, __FILE__, __LINE__) \
                .stream()

/// Aborts with a message when `cond` does not hold. Active in all builds:
/// invariant violations in a solver are always bugs worth crashing on.
#define MROAM_CHECK(cond)                                              \
  if (cond) {                                                          \
  } else /* NOLINT */                                                  \
    ::mroam::common::internal::FatalLogMessage(__FILE__, __LINE__)     \
            .stream()                                                  \
        << "Check failed: " #cond " "

#define MROAM_CHECK_EQ(a, b) MROAM_CHECK((a) == (b))
#define MROAM_CHECK_NE(a, b) MROAM_CHECK((a) != (b))
#define MROAM_CHECK_LE(a, b) MROAM_CHECK((a) <= (b))
#define MROAM_CHECK_LT(a, b) MROAM_CHECK((a) < (b))
#define MROAM_CHECK_GE(a, b) MROAM_CHECK((a) >= (b))
#define MROAM_CHECK_GT(a, b) MROAM_CHECK((a) > (b))

/// Debug-only check for hot paths (compiled out in NDEBUG builds).
#ifdef NDEBUG
#define MROAM_DCHECK(cond) \
  if (true) {              \
  } else /* NOLINT */      \
    MROAM_CHECK(cond)
#else
#define MROAM_DCHECK(cond) MROAM_CHECK(cond)
#endif

}  // namespace mroam::common

#endif  // MROAM_COMMON_LOGGING_H_
