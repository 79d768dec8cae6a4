#include "common/crc32.h"

#include <array>

namespace mroam::common {

namespace {

/// Slicing-by-16 tables for the reflected IEEE polynomial, computed at
/// compile time. kTables[0] is the classic bytewise table; kTables[k][b]
/// is the CRC of byte b followed by k zero bytes, so one step folds 16
/// input bytes with 16 independent lookups.
constexpr std::array<std::array<uint32_t, 256>, 16> MakeTables() {
  std::array<std::array<uint32_t, 256>, 16> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<std::array<uint32_t, 256>, 16> kTables = MakeTables();

/// Little-endian 32-bit load; compiles to one mov on little-endian targets.
inline uint32_t Load32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto& t = kTables;
  uint32_t crc = ~seed;
  for (; size >= 16; bytes += 16, size -= 16) {
    const uint32_t a = Load32(bytes) ^ crc;
    const uint32_t b = Load32(bytes + 4);
    const uint32_t c = Load32(bytes + 8);
    const uint32_t d = Load32(bytes + 12);
    crc = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^
          t[13][(a >> 16) & 0xFFu] ^ t[12][a >> 24] ^ t[11][b & 0xFFu] ^
          t[10][(b >> 8) & 0xFFu] ^ t[9][(b >> 16) & 0xFFu] ^ t[8][b >> 24] ^
          t[7][c & 0xFFu] ^ t[6][(c >> 8) & 0xFFu] ^ t[5][(c >> 16) & 0xFFu] ^
          t[4][c >> 24] ^ t[3][d & 0xFFu] ^ t[2][(d >> 8) & 0xFFu] ^
          t[1][(d >> 16) & 0xFFu] ^ t[0][d >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xFFu];
  }
  return ~crc;
}

}  // namespace mroam::common
