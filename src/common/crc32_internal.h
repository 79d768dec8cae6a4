#ifndef MROAM_COMMON_CRC32_INTERNAL_H_
#define MROAM_COMMON_CRC32_INTERNAL_H_

// The two implementations behind common::Crc32, exposed so a test can run
// each on any CPU. Callers use Crc32 (crc32.h), which picks one.

#include <cstddef>
#include <cstdint>

namespace mroam::common::internal {

/// Slicing-by-16 over compile-time tables: every target and every CPU.
uint32_t Crc32Table(const void* data, size_t size, uint32_t seed);

/// Whether this CPU runs Crc32Clmul: x86-64 with PCLMULQDQ and SSE4.1.
/// Checked once, on first call; always false on other targets.
bool CpuHasClmul();

/// Folds 64-byte blocks by carry-less multiplication, then the last
/// 16-byte blocks, and hands the remaining tail (and any buffer shorter
/// than 64 bytes) to the table. Call only where CpuHasClmul().
uint32_t Crc32Clmul(const void* data, size_t size, uint32_t seed);

}  // namespace mroam::common::internal

#endif  // MROAM_COMMON_CRC32_INTERNAL_H_
