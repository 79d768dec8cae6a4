#ifndef MROAM_CINDEX_POSTINGS_H_
#define MROAM_CINDEX_POSTINGS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace mroam::cindex {

/// Block-compressed sorted posting lists (DESIGN.md §7).
///
/// Every sorted list of int32 values is cut into blocks of 512 consecutive
/// values (values v with the same v >> 9). Each block is a 4-byte packed
/// header followed by one of two payloads:
///
///   - sparse: LEB128 varints — first value minus the block base, then
///     (gap - 1) deltas between consecutive values;
///   - dense: 64 bytes of bitmap (8 little-endian u64 words; bit i of
///     word w represents value base + w*64 + i).
///
/// A block is stored dense exactly when its sparse encoding would reach
/// the dense payload size (64 bytes), so the choice is deterministic and
/// re-encoding a decoded blob is bit-identical — the property the
/// decoded snapshot boot checks in place with IsEncodingOf.

/// log2 of the number of values a block spans.
inline constexpr uint32_t kBlockSpanBits = 9;
/// Values per block (512).
inline constexpr uint32_t kBlockSpan = 1u << kBlockSpanBits;
/// 64-bit words in a dense block payload.
inline constexpr uint32_t kBlockWords = kBlockSpan / 64;
/// Bytes in a dense block payload.
inline constexpr uint32_t kBlockDenseBytes = kBlockWords * 8;
/// Bits of the packed header holding the block key (value >> 9).
inline constexpr uint32_t kBlockKeyBits = 20;
inline constexpr uint32_t kBlockKeyMask = (1u << kBlockKeyBits) - 1;
/// The header stores (count - 1) in 9 bits above the key.
inline constexpr uint32_t kBlockCountShift = kBlockKeyBits;
inline constexpr uint32_t kBlockCountMask = (kBlockSpan - 1)
                                            << kBlockCountShift;
/// Top bit marks a dense (bitmap) payload. Bits 29–30 are reserved and
/// must be zero.
inline constexpr uint32_t kBlockDenseFlag = 0x80000000u;
inline constexpr uint32_t kBlockReservedMask =
    ~(kBlockKeyMask | kBlockCountMask | kBlockDenseFlag);
/// Largest representable universe: 2^20 block keys x 512 values.
inline constexpr int64_t kMaxUniverse = int64_t{kBlockSpan} << kBlockKeyBits;

/// Blob framing: "CPB1" magic, fixed header, per-list directory, data.
inline constexpr uint32_t kPostingsMagic = 0x31425043u;  // "CPB1" LE
inline constexpr size_t kPostingsHeaderBytes = 32;
inline constexpr size_t kPostingsDirEntryBytes = 16;
/// The data area starts at the next multiple of this after the directory.
inline constexpr size_t kPostingsAlignment = 64;

/// Unaligned little-endian loads. Byte shifts compile to a single mov on
/// little-endian targets but stay correct (and UB-free) everywhere.
inline uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline uint64_t LoadLE64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadLE32(p)) |
         (static_cast<uint64_t>(LoadLE32(p + 4)) << 32);
}

/// Whether FromBytes copies the input into owned storage or borrows the
/// caller's buffer (which must then outlive the CompressedPostings — the
/// mmap serving path).
enum class Ownership { kCopy, kBorrow };

/// An immutable set of block-compressed sorted posting lists over a common
/// value universe. The in-memory layout IS the wire layout (`bytes()`), so
/// a blob read back with FromBytes(..., kBorrow) serves lookups zero-copy.
class CompressedPostings {
 public:
  CompressedPostings() = default;

  /// Value-copy keeps owned blobs self-contained: an owning copy re-points
  /// its view into its own storage; a borrowed copy shares the external
  /// buffer (both remain valid as long as that buffer does).
  CompressedPostings(const CompressedPostings& other) { *this = other; }
  CompressedPostings& operator=(const CompressedPostings& other) {
    if (this == &other) return *this;
    owned_ = other.owned_;
    bytes_ = owned_.empty() ? other.bytes_ : std::string_view(owned_);
    Bind();
    return *this;
  }
  CompressedPostings(CompressedPostings&& other) noexcept { *this = std::move(other); }
  CompressedPostings& operator=(CompressedPostings&& other) noexcept {
    if (this == &other) return *this;
    bool owning = !other.owned_.empty();
    owned_ = std::move(other.owned_);
    bytes_ = owning ? std::string_view(owned_) : other.bytes_;
    Bind();
    other.owned_.clear();
    other.bytes_ = {};
    other.Bind();
    return *this;
  }

  /// List i of a set of lists, as the encoder reads it: lists are
  /// encoded where they lie, however the caller stores them.
  using ListAt = std::function<std::span<const int32_t>(int32_t)>;

  /// Compresses `num_lists` lists into an owned blob, list i being
  /// `list_at(i)`. Each must be sorted ascending, duplicate-free and
  /// inside [0, universe); CHECK-fails on violated preconditions — callers
  /// hold InfluenceIndex invariants already.
  static CompressedPostings Build(int32_t num_lists, const ListAt& list_at,
                                  int32_t universe);

  /// Build over nested vectors, list i being lists[i].
  static CompressedPostings Build(
      const std::vector<std::vector<int32_t>>& lists, int32_t universe) {
    return Build(NumLists(lists), ListsOf(lists), universe);
  }

  /// Whether Build(num_lists, list_at, universe) would produce exactly
  /// this blob's bytes. Runs Build's encoder against the blob in place:
  /// allocates nothing and stops at the first byte that differs — in the
  /// header, directory, padding or data — or at a length mismatch. Same
  /// preconditions as Build.
  bool IsEncodingOf(int32_t num_lists, const ListAt& list_at,
                    int32_t universe) const;

  /// IsEncodingOf over nested vectors, list i being lists[i].
  bool IsEncodingOf(const std::vector<std::vector<int32_t>>& lists,
                    int32_t universe) const {
    return IsEncodingOf(NumLists(lists), ListsOf(lists), universe);
  }

  /// Parses (and fully validates) a blob previously produced by Build.
  /// kBorrow keeps `bytes` as the backing store; kCopy duplicates it.
  static common::Result<CompressedPostings> FromBytes(std::string_view bytes,
                                                      Ownership ownership);

  /// True when no blob is bound (default-constructed / moved-from).
  bool empty() const { return bytes_.empty(); }

  uint32_t num_lists() const { return num_lists_; }
  int32_t universe() const { return universe_; }
  /// Sum of ListSize over all lists.
  uint64_t total_count() const { return total_count_; }
  /// Number of values in `list`.
  uint32_t ListSize(int32_t list) const {
    return LoadLE32(DirEntry(list) + 8);
  }
  /// Number of blocks encoding `list`.
  uint32_t ListBlocks(int32_t list) const {
    return LoadLE32(DirEntry(list) + 12);
  }
  /// The wire bytes; valid input for FromBytes on any machine.
  std::string_view bytes() const { return bytes_; }

  /// Calls fn(int32_t value) for every value of `list` in ascending order.
  /// Unchecked hot path: the blob was validated at construction.
  template <typename Fn>
  void ForEach(int32_t list, Fn&& fn) const {
    const uint8_t* entry = DirEntry(list);
    const uint8_t* p = data_ + LoadLE64(entry);
    const uint32_t blocks = LoadLE32(entry + 12);
    for (uint32_t b = 0; b < blocks; ++b) {
      const uint32_t header = LoadLE32(p);
      p += 4;
      const int32_t base = static_cast<int32_t>(header & kBlockKeyMask)
                           << kBlockSpanBits;
      if (header & kBlockDenseFlag) {
        for (uint32_t w = 0; w < kBlockWords; ++w) {
          uint64_t word = LoadLE64(p + w * 8);
          const int32_t word_base = base + static_cast<int32_t>(w) * 64;
          while (word != 0) {
            fn(word_base + std::countr_zero(word));
            word &= word - 1;
          }
        }
        p += kBlockDenseBytes;
      } else {
        const uint32_t count =
            ((header & kBlockCountMask) >> kBlockCountShift) + 1;
        uint32_t raw;
        p = ReadVarint(p, &raw);
        int32_t v = base + static_cast<int32_t>(raw);
        fn(v);
        for (uint32_t i = 1; i < count; ++i) {
          p = ReadVarint(p, &raw);
          v += static_cast<int32_t>(raw) + 1;
          fn(v);
        }
      }
    }
  }

  /// Appends the decoded values of `list` to `*out` in ascending order.
  void Decode(int32_t list, std::vector<int32_t>* out) const;

  /// Full bounds-checked decode walk over the entire blob: framing sizes,
  /// directory contiguity, strictly increasing block keys, per-block
  /// counts, ascending in-universe values, dense popcounts matching the
  /// headers, reserved bits zero, and list/total counts consistent.
  /// Returns DataLoss naming the first violation.
  common::Status Validate() const;

 private:
  /// Re-derives the cached header fields and data pointer from bytes_.
  void Bind();

  static int32_t NumLists(const std::vector<std::vector<int32_t>>& lists) {
    MROAM_CHECK(lists.size() <= static_cast<size_t>(INT32_MAX));
    return static_cast<int32_t>(lists.size());
  }
  static ListAt ListsOf(const std::vector<std::vector<int32_t>>& lists) {
    return [&lists](int32_t i) {
      return std::span<const int32_t>(lists[static_cast<size_t>(i)]);
    };
  }

  const uint8_t* Data() const {
    return reinterpret_cast<const uint8_t*>(bytes_.data());
  }
  const uint8_t* DirEntry(int32_t list) const {
    MROAM_DCHECK(list >= 0 &&
                 static_cast<uint32_t>(list) < num_lists_);
    return Data() + kPostingsHeaderBytes +
           static_cast<size_t>(list) * kPostingsDirEntryBytes;
  }

  /// Unchecked LEB128 read (hot path; blob validated at construction).
  static const uint8_t* ReadVarint(const uint8_t* p, uint32_t* out) {
    uint32_t value = *p & 0x7f;
    uint32_t shift = 7;
    while (*p & 0x80) {
      ++p;
      value |= static_cast<uint32_t>(*p & 0x7f) << shift;
      shift += 7;
    }
    *out = value;
    return p + 1;
  }

  std::string owned_;       ///< backing bytes when owning; empty if borrowed
  std::string_view bytes_;  ///< the blob (== owned_ when owning)
  // Cached from the header by Bind().
  const uint8_t* data_ = nullptr;  ///< start of the block-stream data area
  uint32_t num_lists_ = 0;
  int32_t universe_ = 0;
  uint64_t total_count_ = 0;
  uint64_t data_bytes_ = 0;

  friend class PostingsBuilderAccess;  // test hook
};

}  // namespace mroam::cindex

#endif  // MROAM_CINDEX_POSTINGS_H_
