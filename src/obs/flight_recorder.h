#ifndef MROAM_OBS_FLIGHT_RECORDER_H_
#define MROAM_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace mroam::obs {

/// Ring count and per-ring capacity of the flight recorder. Memory is
/// bounded at kFlightRings rings of kFlightRingEvents 40-byte slots
/// (640 KiB) regardless of how long the process runs or how many threads
/// record. The recorder is zero bytes in .bss, so only the rings written
/// so far are resident: each 20 KiB ring is faulted in by its first
/// write, and a process keeps one ring per recording thread, up to 32.
inline constexpr uint32_t kFlightRings = 32;
inline constexpr uint32_t kFlightRingEvents = 512;

/// Always-on in-memory flight recorder: the last ~16k span/event records,
/// kept in per-thread ring buffers so a wedged or crashed process can
/// show what it was doing. Unlike the Tracer (opt-in, unbounded buffers,
/// flushed to a file), the recorder is ON by default (MROAM_FLIGHT=0
/// disables), never allocates, and overwrites its oldest records forever.
///
/// Writers are wait-free: a thread claims a slot with one relaxed
/// fetch_add on its ring's ticket counter and fills it with relaxed
/// stores, so a record costs a few nanoseconds and never blocks —
/// MROAM_TRACE's steady-state cost regime, per DESIGN.md §6. Threads are
/// assigned rings round-robin; more than kFlightRings concurrently hot
/// threads alias onto shared rings and stay correct via the per-slot
/// sequence protocol (a reader drops any slot whose sequence moved while
/// it was being read — a seqlock per slot, with every field an atomic so
/// the protocol is also race-free under TSan).
///
/// Readers (DumpJson, the /debug/flight endpoint, the fatal-signal crash
/// handler) never take a lock: WriteEventsJson is async-signal-safe —
/// fixed-size stack buffers, no allocation, plain write(2) — so it can
/// run from a SIGSEGV handler.
///
/// Span names must be string literals (only the pointer is stored), the
/// same contract as the Tracer.
class FlightRecorder {
 public:
  /// One decoded record (Snapshot output, oldest first).
  struct Event {
    const char* name = nullptr;
    int64_t id = -1;     ///< span/ticket tag; -1 = none
    int64_t t_ns = 0;    ///< completion time (Tracer::NowNanos clock)
    int64_t dur_ns = 0;  ///< 0 for instant events
    uint32_t ring = 0;   ///< writer ring index (≈ thread)
  };

  static FlightRecorder& Global();

  /// The hot-path check. True unless MROAM_FLIGHT=0/off or SetEnabled.
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Appends one completed span ending at `end_ns`. `name` must be a
  /// string literal. No-op when disabled.
  void Record(const char* name, int64_t id, int64_t end_ns, int64_t dur_ns);

  /// Appends one instant event stamped now. No-op when disabled.
  void RecordEvent(const char* name, int64_t id = -1);

  /// Copies out every currently-valid record, oldest first (by t_ns).
  /// Concurrent writers may overwrite slots mid-scan; torn slots are
  /// dropped, so the result is always internally consistent.
  std::vector<Event> Snapshot() const;

  /// {"enabled":...,"dropped_approx":...,"events":[...]} for
  /// GET /debug/flight and tests.
  std::string DumpJson() const;

  /// Async-signal-safe: writes the ring contents to `fd` as the inside
  /// of a JSON array ("{...},{...}" — no enclosing brackets), unsorted.
  /// Safe to call from a fatal-signal handler.
  void WriteEventsJson(int fd) const;

  /// Number of currently-valid records (tests / diagnostics).
  int64_t EventCount() const;

  /// Total records ever claimed minus retained capacity — roughly how
  /// many records have been overwritten (diagnostics).
  int64_t DroppedApprox() const;

  /// Invalidates every slot (test isolation; not signal-safe to race
  /// with, but writers may continue normally). Rings whose ticket counter
  /// is 0 are skipped, so rings never written stay unfaulted.
  void Clear();

 private:
  /// One seqlock-protected record slot. seq == 0 means empty/being
  /// written; seq == ticket+1 (unique, strictly increasing per slot)
  /// means valid. Every field is an atomic so concurrent read/overwrite
  /// is defined behavior; the seq re-check makes it also *consistent*.
  /// Every default is a zero byte, so the recorder is all-zero storage;
  /// readers never see a field of a slot whose seq is still 0.
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<int64_t> id{0};
    std::atomic<int64_t> t_ns{0};
    std::atomic<int64_t> dur_ns{0};
  };
  struct alignas(64) Ring {
    std::atomic<uint64_t> next{0};  ///< ticket counter; slot = next % N
    Slot slots[kFlightRingEvents];
  };

  constexpr FlightRecorder() = default;
  static uint32_t ThisThreadRing();
  /// Reads one slot under the seq protocol; false when empty or torn.
  static bool ReadSlot(const Slot& slot, uint32_t ring, Event* out);

  static std::atomic<bool> enabled_;
  Ring rings_[kFlightRings];
};

/// Drops one instant lifecycle event into the flight recorder (e.g.
/// "ticket.enqueue" tagged with the request id). `name` must be a string
/// literal.
#define MROAM_FLIGHT_EVENT(name, id)                                      \
  do {                                                                    \
    if (::mroam::obs::FlightRecorder::Enabled()) {                        \
      ::mroam::obs::FlightRecorder::Global().RecordEvent(name, id);       \
    }                                                                     \
  } while (0)

}  // namespace mroam::obs

#endif  // MROAM_OBS_FLIGHT_RECORDER_H_
