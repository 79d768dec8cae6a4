#include "obs/crash_handler.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace mroam::obs {
namespace {

constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};

/// Fixed storage: the handler must not allocate to learn its own path.
char g_report_path[512] = {0};
std::atomic<bool> g_installed{false};
std::atomic<bool> g_in_handler{false};

const char* SignalName(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    default: return "SIG?";
  }
}

void WriteRaw(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    ssize_t n = write(fd, data + sent, size - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    sent += static_cast<size_t>(n);
  }
}

void RestoreAndRaise(int sig) {
  signal(sig, SIG_DFL);
  raise(sig);
}

/// The closing phase-1 tail. Phase 2 seeks back over exactly this many
/// bytes to replace the `null` placeholder with the real snapshot, so
/// the file is valid JSON even if phase 2 never runs (or dies midway
/// after the fsync barrier below).
constexpr char kNullTail[] = "],\"metrics\":null}";

void CrashHandler(int sig) {
  // A fault inside the handler (or a second thread crashing
  // concurrently) must not recurse: first entry wins, everyone else
  // re-raises straight away.
  if (g_in_handler.exchange(true)) {
    RestoreAndRaise(sig);
    return;
  }

  const int fd =
      open(g_report_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    // Phase 1: async-signal-safe. Header + flight-recorder events +
    // "metrics":null — complete, parseable JSON.
    char head[160];
    int n = std::snprintf(head, sizeof(head),
                          "{\"signal\":%d,\"signal_name\":\"%s\","
                          "\"pid\":%d,\"events\":[",
                          sig, SignalName(sig), static_cast<int>(getpid()));
    if (n > 0) WriteRaw(fd, head, static_cast<size_t>(n));
    FlightRecorder::Global().WriteEventsJson(fd);
    WriteRaw(fd, kNullTail, sizeof(kNullTail) - 1);
    fsync(fd);

    // Phase 2: best effort. Serializing the metrics snapshot allocates
    // and briefly takes the registry's registration mutex; for the
    // common "wedged process killed with SEGV" case this always
    // succeeds, and if the crash was *inside* malloc or the registry the
    // re-entry guard re-raises and phase 1's file stands.
    const std::string metrics =
        MetricsRegistry::Global().Snapshot().ToJson();
    if (lseek(fd, -static_cast<off_t>(sizeof(kNullTail) - 1), SEEK_END) >=
        0) {
      WriteRaw(fd, "],\"metrics\":", 12);
      WriteRaw(fd, metrics.data(), metrics.size());
      WriteRaw(fd, "}", 1);
    }
    close(fd);
  }
  RestoreAndRaise(sig);
}

}  // namespace

void InstallCrashHandler(const char* path) {
  if (path == nullptr || path[0] == '\0') {
    path = std::getenv("MROAM_CRASH_REPORT");
  }
  if (path == nullptr || path[0] == '\0') {
    path = "mroam_crash_report.json";
  }
  std::snprintf(g_report_path, sizeof(g_report_path), "%s", path);

  // Touch the registry now so the handler never runs its first-use
  // initialization (which could allocate) inside a signal context. The
  // flight recorder is constant-initialized and needs no touch.
  MetricsRegistry::Global();

  if (g_installed.exchange(true)) return;  // path updated above
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = CrashHandler;
  sigemptyset(&action.sa_mask);
  // No SA_RESETHAND: the handler restores SIG_DFL itself after writing,
  // and the re-entry guard covers a fault inside the handler.
  for (int sig : kFatalSignals) {
    sigaction(sig, &action, nullptr);
  }
}

const char* CrashReportPath() { return g_report_path; }

}  // namespace mroam::obs
