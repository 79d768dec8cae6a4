#ifndef MROAM_COMMON_CRC32_H_
#define MROAM_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mroam::common {

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
/// guarding every snapshot section (docs/snapshot_format.md). `seed` lets
/// callers chain partial buffers: Crc32(b, Crc32(a)) == Crc32(a + b).
/// Crc32 of an empty buffer is 0.
///
/// On x86-64 CPUs with PCLMULQDQ and SSE4.1 (checked once) it folds
/// 64-byte blocks by carry-less multiplication and takes the last
/// 0–15 bytes, and any buffer under 64, through slicing-by-16 tables;
/// elsewhere the tables take every byte. Both give the same values
/// (crc32_internal.h exposes each for tests).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view data, uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

}  // namespace mroam::common

#endif  // MROAM_COMMON_CRC32_H_
