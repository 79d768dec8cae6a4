#ifndef MROAM_OBS_TRACE_H_
#define MROAM_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/flight_recorder.h"

namespace mroam::obs {

/// Process-wide scoped-span tracer. Disabled by default, but a span still
/// mirrors into the always-on flight recorder: two clock reads and a ring
/// write, ~100 ns on the bench fixture against ~1.4 ns (two relaxed
/// loads) with MROAM_FLIGHT=0 (DESIGN.md §6). So put no span around work
/// that costs less than about a microsecond. Enabled either by the
/// MROAM_TRACE=<path> environment variable (spans are flushed to <path>
/// as Chrome trace-event JSON at process exit — load the file in Perfetto
/// or chrome://tracing) or programmatically via Enable().
///
/// Spans are buffered per thread (one mutex-guarded buffer per thread,
/// uncontended in steady state) and merged at Flush()/DumpJson() time.
/// Span names must be string literals (or otherwise outlive the tracer):
/// only the pointer is stored on the hot path.
class Tracer {
 public:
  static Tracer& Global();

  /// True when spans are being recorded. The hot-path check.
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Starts recording; Flush() (and process exit) writes to `path`.
  /// An empty path records in memory only (DumpJson for tests).
  void Enable(std::string path);

  /// Stops recording. Already-buffered spans are kept until Flush/Clear.
  void Disable();

  /// Appends one completed span to the calling thread's buffer.
  void Record(const char* name, int64_t id, int64_t start_ns,
              int64_t end_ns);

  /// Serializes all buffered spans as a Chrome trace-event JSON document.
  std::string DumpJson();

  /// Writes DumpJson() to the Enable() path and clears the buffers.
  /// No-op (Ok) when no path was configured.
  common::Status Flush();

  /// Drops all buffered spans (test isolation).
  void Clear();

  /// Bounded on-demand capture (GET /debug/trace?ms=...): records spans
  /// for `seconds` of wall time, then returns the Chrome trace-event
  /// JSON. When the tracer was disabled, it is enabled in memory only
  /// for the window and restored (buffers cleared) afterwards — the
  /// MROAM_TRACE path, if any, is untouched. When the tracer was
  /// already enabled (an MROAM_TRACE session), the window just dumps
  /// the live buffers without clearing them. Concurrent captures
  /// serialize on an internal mutex; the caller blocks for the window.
  std::string CaptureWindow(double seconds);

  /// Buffered span count across all threads (tests / diagnostics).
  int64_t SpanCount();

  /// Monotonic clock used for span timestamps, in nanoseconds.
  static int64_t NowNanos();

 private:
  struct SpanRecord {
    const char* name;
    int64_t id;  ///< -1 = none; else emitted as args.id
    int64_t start_ns;
    int64_t dur_ns;
  };
  struct ThreadBuffer {
    std::mutex mu;
    uint32_t tid = 0;
    std::vector<SpanRecord> spans;
  };

  Tracer();
  ThreadBuffer* BufferForThisThread();

  static std::atomic<bool> enabled_;

  const int64_t epoch_ns_;  ///< trace timestamps are relative to this
  std::mutex capture_mu_;   ///< serializes CaptureWindow sessions
  std::mutex mu_;           ///< guards buffers_ registration and path_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::string path_;
  /// Whether a flush already wrote path_; an empty follow-up flush (e.g.
  /// the process-exit hook after a server's explicit Stop() flush) then
  /// leaves the file alone instead of truncating it.
  bool flushed_once_ = false;
};

/// RAII span: records [construction, destruction) under `name` when the
/// tracer is enabled at construction time — and, always, into the
/// flight recorder's ring buffers (FlightRecorder, on by default) so
/// the last spans survive for /debug/flight and crash reports. With
/// both sinks off the constructor cost is two relaxed loads; in the
/// always-on steady state (tracer off, recorder on) a span costs two
/// clock reads plus one wait-free ring write. `name` must be a string
/// literal. Pass `id` >= 0 to tag the span (e.g. a restart index or a
/// ticket); it is emitted as args.id in the trace and as the flight
/// record's id.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t id = -1)
      : to_tracer_(Tracer::Enabled()),
        to_flight_(FlightRecorder::Enabled()) {
    // The sink set is latched here: a span live across Disable() still
    // records (spans are never torn), and one armed mid-span does not
    // capture a partial measurement.
    if (!to_tracer_ && !to_flight_) return;
    name_ = name;
    id_ = id;
    start_ns_ = Tracer::NowNanos();
  }

  ~ScopedSpan() {
    if (name_ == nullptr) return;
    const int64_t end_ns = Tracer::NowNanos();
    if (to_tracer_) {
      Tracer::Global().Record(name_, id_, start_ns_, end_ns);
    }
    if (to_flight_) {
      FlightRecorder::Global().Record(name_, id_, end_ns,
                                      end_ns - start_ns_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  int64_t id_ = -1;
  int64_t start_ns_ = 0;
  bool to_tracer_ = false;
  bool to_flight_ = false;
};

#define MROAM_OBS_CONCAT_INNER(a, b) a##b
#define MROAM_OBS_CONCAT(a, b) MROAM_OBS_CONCAT_INNER(a, b)

// MROAM_TRACE_SPAN("name") traces the enclosing scope. Compiled to
// nothing when the MROAM_ENABLE_TRACING CMake option is OFF.
#ifndef MROAM_TRACING_DISABLED
#define MROAM_TRACE_SPAN(name)                                        \
  ::mroam::obs::ScopedSpan MROAM_OBS_CONCAT(mroam_span_, __LINE__)(name)
#define MROAM_TRACE_SPAN_ID(name, id)                                 \
  ::mroam::obs::ScopedSpan MROAM_OBS_CONCAT(mroam_span_, __LINE__)(name, id)
#else
#define MROAM_TRACE_SPAN(name) static_cast<void>(0)
#define MROAM_TRACE_SPAN_ID(name, id) static_cast<void>(0)
#endif

}  // namespace mroam::obs

#endif  // MROAM_OBS_TRACE_H_
