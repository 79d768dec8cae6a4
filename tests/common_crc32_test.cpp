// Crc32 against fixed answers and against a bit-at-a-time reference
// kept here, so a wrong table or fold constant cannot pass by agreeing
// with itself the way a snapshot round trip would. Every case runs
// through the public Crc32 and through each implementation behind it, so
// the table path stays tested on CPUs where Crc32 no longer takes it.
#include "common/crc32.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32_internal.h"
#include "common/rng.h"

namespace mroam::common {
namespace {

/// The reflected IEEE CRC-32, one bit at a time, chained from `seed`.
uint32_t ReferenceCrc32(const unsigned char* data, size_t size,
                        uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

std::vector<unsigned char> SeededBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  return bytes;
}

using CrcFn = uint32_t (*)(const void*, size_t, uint32_t);

struct CrcPath {
  const char* name;
  CrcFn crc;
  bool needs_clmul;
};

class Crc32PathTest : public ::testing::TestWithParam<CrcPath> {
 protected:
  void SetUp() override {
    if (GetParam().needs_clmul && !internal::CpuHasClmul()) {
      GTEST_SKIP() << "this CPU has no PCLMULQDQ/SSE4.1";
    }
  }

  uint32_t Crc(std::string_view data, uint32_t seed = 0) const {
    return GetParam().crc(data.data(), data.size(), seed);
  }
  uint32_t Crc(const unsigned char* data, size_t size,
               uint32_t seed = 0) const {
    return GetParam().crc(data, size, seed);
  }
};

TEST_P(Crc32PathTest, KnownAnswers) {
  EXPECT_EQ(Crc(""), 0u);
  EXPECT_EQ(Crc("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
  // 64 and 128 bytes: one and two whole fold blocks, no tail.
  EXPECT_EQ(Crc(std::string(64, '\0')), 0x758D6336u);
  EXPECT_EQ(Crc(std::string(128, '\xFF')), 0x652D544Cu);
}

TEST_P(Crc32PathTest, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<unsigned char> buffer = SeededBytes(16 + 300, 17);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= 300; ++length) {
      const unsigned char* data = buffer.data() + offset;
      ASSERT_EQ(Crc(data, length), ReferenceCrc32(data, length))
          << "offset " << offset << ", length " << length;
    }
  }
}

TEST_P(Crc32PathTest, MatchesReferenceAroundTheFoldThresholdWithASeed) {
  // The carry-less path starts at 64 bytes; on either side of it, and
  // from a nonzero seed, both paths must agree with the reference.
  const std::vector<unsigned char> buffer = SeededBytes(16 + 80, 29);
  for (uint32_t seed : {0u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    for (size_t offset = 0; offset < 16; ++offset) {
      for (size_t length = 48; length <= 80; ++length) {
        const unsigned char* data = buffer.data() + offset;
        ASSERT_EQ(Crc(data, length, seed),
                  ReferenceCrc32(data, length, seed))
            << "seed " << seed << ", offset " << offset << ", length "
            << length;
      }
    }
  }
}

TEST_P(Crc32PathTest, MatchesReferenceOverAMebibyte) {
  // Many 64-byte fold steps, then 16-byte steps, then a table tail.
  const std::vector<unsigned char> buffer = SeededBytes((1 << 20) + 53, 31);
  EXPECT_EQ(Crc(buffer.data(), buffer.size()),
            ReferenceCrc32(buffer.data(), buffer.size()));
}

TEST_P(Crc32PathTest, SeedChainsAtEverySplit) {
  const std::vector<unsigned char> buffer = SeededBytes(257, 23);
  const std::string whole(buffer.begin(), buffer.end());
  const uint32_t expected = ReferenceCrc32(buffer.data(), buffer.size());
  for (size_t split = 0; split <= whole.size(); ++split) {
    const std::string_view view(whole);
    EXPECT_EQ(Crc(view.substr(split), Crc(view.substr(0, split))), expected)
        << "split at " << split;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, Crc32PathTest,
    ::testing::Values(
        CrcPath{"Crc32", &Crc32, false},
        CrcPath{"Table", internal::Crc32Table, false},
        CrcPath{"Clmul", internal::Crc32Clmul, true}),
    [](const ::testing::TestParamInfo<CrcPath>& path) {
      return std::string(path.param.name);
    });

}  // namespace
}  // namespace mroam::common
