#include "common/crc32.h"

#include <array>

#include "common/crc32_internal.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define MROAM_CRC32_CLMUL 1
#include <immintrin.h>
#endif

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

/// Advances the CRC register `crc` (the inverted running value) over
/// `size` bytes.
uint32_t TableUpdate(uint32_t crc, const unsigned char* bytes, size_t size) {
  const auto& t = kTables;
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
  return crc;
}

#ifdef MROAM_CRC32_CLMUL

// Compiled for PCLMULQDQ and SSE4.1 by attribute, so the build needs no
// -march; Crc32 calls in only on a CPU that has both.

__attribute__((target("pclmul,sse4.1"))) inline __m128i Load128(
    const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// One fold step: x's high quadword times the high constant, plus its low
/// quadword times the low constant, plus the next 16 bytes.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i x,
                                                             __m128i k,
                                                             __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11),
                                     _mm_clmulepi64_si128(x, k, 0x00)),
                       next);
}

/// Advances the CRC register `crc` over `size` bytes, a multiple of 16 and
/// at least 64, by carry-less multiplication: four 128-bit lanes fold
/// 64 bytes a step, then fold into one lane, which takes the remaining
/// 16-byte blocks and is Barrett-reduced to 32 bits. The constants are
/// the bit-reflected x^k mod P(x) and Barrett values for the IEEE
/// polynomial from Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009).
__attribute__((target("pclmul,sse4.1"))) uint32_t ClmulUpdate(
    uint32_t crc, const unsigned char* bytes, size_t size) {
  // _mm_set_epi64x takes the high quadword first.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 = _mm_xor_si128(Load128(bytes),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(bytes + 16);
  __m128i x3 = Load128(bytes + 32);
  __m128i x4 = Load128(bytes + 48);
  bytes += 64;
  size -= 64;
  for (; size >= 64; bytes += 64, size -= 64) {
    x1 = Fold(x1, k1k2, Load128(bytes));
    x2 = Fold(x2, k1k2, Load128(bytes + 16));
    x3 = Fold(x3, k1k2, Load128(bytes + 32));
    x4 = Fold(x4, k1k2, Load128(bytes + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; size >= 16; bytes += 16, size -= 16) {
    x1 = Fold(x1, k3k4, Load128(bytes));
  }

  // 128 bits to 64, then Barrett reduction to the 32-bit remainder.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#endif  // MROAM_CRC32_CLMUL

}  // namespace

namespace internal {

uint32_t Crc32Table(const void* data, size_t size, uint32_t seed) {
  return ~TableUpdate(~seed, static_cast<const unsigned char*>(data), size);
}

#ifdef MROAM_CRC32_CLMUL

bool CpuHasClmul() {
  // A function-local static runs on first use, so the CPU model is
  // initialized here even when the first CRC runs in a static
  // constructor, before libgcc's own initializer.
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

uint32_t Crc32Clmul(const void* data, size_t size, uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  if (size >= 64) {
    const size_t folded = size & ~size_t{15};
    crc = ClmulUpdate(crc, bytes, folded);
    bytes += folded;
    size -= folded;
  }
  return ~TableUpdate(crc, bytes, size);
}

#else

bool CpuHasClmul() { return false; }

uint32_t Crc32Clmul(const void* data, size_t size, uint32_t seed) {
  return Crc32Table(data, size, seed);
}

#endif  // MROAM_CRC32_CLMUL

}  // namespace internal

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  return internal::CpuHasClmul() ? internal::Crc32Clmul(data, size, seed)
                                 : internal::Crc32Table(data, size, seed);
}

}  // namespace mroam::common
