#include "obs/flight_recorder.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mroam::obs {

std::atomic<bool> FlightRecorder::enabled_{true};

namespace {

/// Reads MROAM_FLIGHT once at process start; "0"/"off"/"false" disables
/// the recorder for processes that want the pure 0.7 ns span path back.
[[maybe_unused]] const bool g_flight_env_armed = [] {
  const char* value = std::getenv("MROAM_FLIGHT");
  if (value != nullptr &&
      (std::strcmp(value, "0") == 0 || std::strcmp(value, "off") == 0 ||
       std::strcmp(value, "false") == 0)) {
    FlightRecorder::SetEnabled(false);
  }
  return true;
}();

/// write(2) with short-write/EINTR retry; errors are swallowed (this
/// runs inside a crash handler — there is nobody to report to).
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

/// Copies `name` into `out`, replacing anything that would need JSON
/// escaping with '_'. Span names are plain identifiers; this just keeps
/// the signal-safe path from having to implement \uXXXX escapes.
void SanitizeName(const char* name, char* out, size_t out_size) {
  size_t i = 0;
  for (; name[i] != '\0' && i + 1 < out_size; ++i) {
    const unsigned char c = static_cast<unsigned char>(name[i]);
    out[i] = (c < 0x20 || c == '"' || c == '\\' || c >= 0x7f) ? '_'
                                                              : name[i];
  }
  out[i] = '\0';
}

}  // namespace

// The crash handler may run during process teardown and must never
// touch a destroyed object: with no destructor to run, the recorder
// outlives every exit path.
static_assert(std::is_trivially_destructible_v<FlightRecorder>);

FlightRecorder& FlightRecorder::Global() {
  // Constant-initialized to zero bytes, so the recorder sits in .bss:
  // no constructor runs, no first-use guard is checked, and a ring's
  // pages are faulted in by its first write.
  static constinit FlightRecorder recorder;
  return recorder;
}

uint32_t FlightRecorder::ThisThreadRing() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t ring =
      next.fetch_add(1, std::memory_order_relaxed) % kFlightRings;
  return ring;
}

void FlightRecorder::Record(const char* name, int64_t id, int64_t end_ns,
                            int64_t dur_ns) {
  if (!Enabled()) return;
  Ring& ring = rings_[ThisThreadRing()];
  const uint64_t ticket = ring.next.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring.slots[ticket % kFlightRingEvents];
  // Seqlock write: invalidate, fill, publish. A reader that overlaps the
  // fill sees seq == 0 (or a moved seq) and drops the slot.
  slot.seq.store(0, std::memory_order_release);
  slot.name.store(name, std::memory_order_relaxed);
  slot.id.store(id, std::memory_order_relaxed);
  slot.t_ns.store(end_ns, std::memory_order_relaxed);
  slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
  slot.seq.store(ticket + 1, std::memory_order_release);
}

void FlightRecorder::RecordEvent(const char* name, int64_t id) {
  Record(name, id, Tracer::NowNanos(), 0);
}

bool FlightRecorder::ReadSlot(const Slot& slot, uint32_t ring, Event* out) {
  const uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
  if (seq_before == 0) return false;
  out->name = slot.name.load(std::memory_order_relaxed);
  out->id = slot.id.load(std::memory_order_relaxed);
  out->t_ns = slot.t_ns.load(std::memory_order_relaxed);
  out->dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
  out->ring = ring;
  // Torn read check: a concurrent writer invalidates seq before touching
  // the fields, so an unchanged nonzero seq means the fields are one
  // consistent record. Every field is its own atomic, so a lost race here
  // is never UB — at worst a mixed record, which this check drops. (No
  // atomic_thread_fence: gcc's tsan rejects it, and the per-field atomics
  // make it unnecessary for race-freedom.)
  if (slot.seq.load(std::memory_order_acquire) != seq_before) return false;
  return out->name != nullptr;
}

std::vector<FlightRecorder::Event> FlightRecorder::Snapshot() const {
  std::vector<Event> events;
  events.reserve(256);
  for (uint32_t r = 0; r < kFlightRings; ++r) {
    for (const Slot& slot : rings_[r].slots) {
      Event event;
      if (ReadSlot(slot, r, &event)) events.push_back(event);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.t_ns < b.t_ns; });
  return events;
}

std::string FlightRecorder::DumpJson() const {
  const std::vector<Event> events = Snapshot();
  std::string out = "{\"enabled\":";
  out += Enabled() ? "true" : "false";
  out += ",\"dropped_approx\":" + std::to_string(DroppedApprox());
  out += ",\"events\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (i > 0) out.push_back(',');
    out += "{\"name\":";
    internal::AppendJsonString(&out, e.name);
    out += ",\"ring\":" + std::to_string(e.ring);
    if (e.id >= 0) out += ",\"id\":" + std::to_string(e.id);
    out += ",\"t_ns\":" + std::to_string(e.t_ns) +
           ",\"dur_ns\":" + std::to_string(e.dur_ns) + "}";
  }
  out += "]}";
  return out;
}

void FlightRecorder::WriteEventsJson(int fd) const {
  char line[256];
  char name[96];
  bool first = true;
  for (uint32_t r = 0; r < kFlightRings; ++r) {
    for (const Slot& slot : rings_[r].slots) {
      Event event;
      if (!ReadSlot(slot, r, &event)) continue;
      SanitizeName(event.name, name, sizeof(name));
      const int n = std::snprintf(
          line, sizeof(line),
          "%s{\"name\":\"%s\",\"ring\":%u,\"id\":%lld,\"t_ns\":%lld,"
          "\"dur_ns\":%lld}",
          first ? "" : ",", name, r, static_cast<long long>(event.id),
          static_cast<long long>(event.t_ns),
          static_cast<long long>(event.dur_ns));
      if (n > 0) WriteRaw(fd, line, static_cast<size_t>(n));
      first = false;
    }
  }
}

int64_t FlightRecorder::EventCount() const {
  int64_t total = 0;
  for (uint32_t r = 0; r < kFlightRings; ++r) {
    for (const Slot& slot : rings_[r].slots) {
      Event event;
      if (ReadSlot(slot, r, &event)) ++total;
    }
  }
  return total;
}

int64_t FlightRecorder::DroppedApprox() const {
  int64_t dropped = 0;
  for (const Ring& ring : rings_) {
    const uint64_t claimed = ring.next.load(std::memory_order_relaxed);
    if (claimed > kFlightRingEvents) {
      dropped += static_cast<int64_t>(claimed - kFlightRingEvents);
    }
  }
  return dropped;
}

void FlightRecorder::Clear() {
  for (Ring& ring : rings_) {
    if (ring.next.load(std::memory_order_relaxed) == 0) continue;
    for (Slot& slot : ring.slots) {
      slot.seq.store(0, std::memory_order_release);
    }
    ring.next.store(0, std::memory_order_relaxed);
  }
}

}  // namespace mroam::obs
