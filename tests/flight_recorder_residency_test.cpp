// What the flight recorder keeps resident. Its rings are zero bytes in
// .bss until written, so one recording thread faults in one ring's pages
// and leaves the other rings untouched. A binary of its own, so that no
// other test records first.
#include "obs/flight_recorder.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace mroam::obs {
namespace {

TEST(FlightRecorderResidencyTest, OneRecordingThreadFaultsInOneRing) {
  FlightRecorder& recorder = FlightRecorder::Global();
  const auto page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
  // The recorder's storage rounded inward to whole pages: no other
  // object shares them.
  const auto at = reinterpret_cast<uintptr_t>(&recorder);
  const uintptr_t first = (at + page - 1) / page * page;
  const uintptr_t last = (at + sizeof(FlightRecorder)) / page * page;
  ASSERT_GT(last, first);
  std::vector<unsigned char> vec((last - first) / page);
  // Counts the resident pages without reading them: a read would map the
  // zero page, which mincore reports as resident.
  auto resident = [&] {
    EXPECT_EQ(::mincore(reinterpret_cast<void*>(first), last - first,
                        vec.data()),
              0);
    size_t pages = 0;
    for (unsigned char v : vec) pages += v & 1u;
    return pages;
  };
  EXPECT_EQ(resident(), 0u);

  FlightRecorder::SetEnabled(true);
  for (uint32_t i = 0; i < 2 * kFlightRingEvents; ++i) {
    recorder.RecordEvent("residency.probe", i);
  }
  const size_t ring_bytes = sizeof(FlightRecorder) / kFlightRings;
  const size_t ring_pages = (ring_bytes + page - 1) / page;
  // Every slot of the one ring was written, so its pages show ...
  EXPECT_GE(resident(), ring_bytes / page - 1);
  // ... and no other ring's did.
  EXPECT_LE(resident(), ring_pages + 1);
  EXPECT_EQ(recorder.EventCount(), int64_t{kFlightRingEvents});
}

}  // namespace
}  // namespace mroam::obs
