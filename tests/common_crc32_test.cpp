// Crc32 against fixed answers and against a bit-at-a-time reference
// kept here, so a wrong table cannot pass by agreeing with itself the
// way a snapshot round trip would.
#include "common/crc32.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace mroam::common {
namespace {

/// The reflected IEEE CRC-32, one bit at a time.
uint32_t ReferenceCrc32(const unsigned char* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
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

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<unsigned char> buffer = SeededBytes(16 + 300, 17);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= 300; ++length) {
      const unsigned char* data = buffer.data() + offset;
      ASSERT_EQ(Crc32(data, length), ReferenceCrc32(data, length))
          << "offset " << offset << ", length " << length;
    }
  }
}

TEST(Crc32Test, SeedChainsAtEverySplit) {
  const std::vector<unsigned char> buffer = SeededBytes(257, 23);
  const std::string whole(buffer.begin(), buffer.end());
  const uint32_t expected = Crc32(whole);
  for (size_t split = 0; split <= whole.size(); ++split) {
    const std::string_view view(whole);
    EXPECT_EQ(Crc32(view.substr(split), Crc32(view.substr(0, split))),
              expected)
        << "split at " << split;
  }
}

}  // namespace
}  // namespace mroam::common
