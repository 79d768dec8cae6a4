#include "cindex/postings.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

namespace mroam::cindex {

namespace {

void StoreLE32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v & 0xff);
  p[1] = static_cast<uint8_t>((v >> 8) & 0xff);
  p[2] = static_cast<uint8_t>((v >> 16) & 0xff);
  p[3] = static_cast<uint8_t>((v >> 24) & 0xff);
}

void StoreLE64(uint8_t* p, uint64_t v) {
  StoreLE32(p, static_cast<uint32_t>(v & 0xffffffffu));
  StoreLE32(p + 4, static_cast<uint32_t>(v >> 32));
}

/// Writes `v` as a LEB128 varint at `out`; returns its length (1–5).
size_t StoreVarint(uint8_t* out, uint32_t v) {
  size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<uint8_t>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  out[n++] = static_cast<uint8_t>(v);
  return n;
}

/// End of the directory, and start of the data area (the next multiple
/// of kPostingsAlignment), for a blob of `num_lists` lists.
size_t DirEnd(uint32_t num_lists) {
  return kPostingsHeaderBytes +
         static_cast<size_t>(num_lists) * kPostingsDirEntryBytes;
}
size_t DataStart(uint32_t num_lists) {
  return (DirEnd(num_lists) + kPostingsAlignment - 1) / kPostingsAlignment *
         kPostingsAlignment;
}

/// Room for one block while it is encoded: its header, a sparse payload
/// of up to 63 bytes and one more varint — the most the encoder writes
/// before it sees the payload reach the dense size.
constexpr size_t kBlockScratchBytes = 4 + (kBlockDenseBytes - 1) + 5;

/// Encodes one block's values (all sharing `key`, sorted ascending) as
/// header + payload into `out` (kBlockScratchBytes) and returns its size.
/// Dense exactly when the sparse encoding reaches the dense payload size,
/// so the choice — and therefore the whole blob — is a pure function of
/// the input lists; the sparse encoding stops as soon as it gets there.
size_t EncodeBlock(uint32_t key, const int32_t* values, uint32_t count,
                   uint8_t* out) {
  const int32_t base = static_cast<int32_t>(key << kBlockSpanBits);
  uint8_t* const payload = out + 4;
  size_t size = StoreVarint(payload, static_cast<uint32_t>(values[0] - base));
  for (uint32_t i = 1; i < count && size < kBlockDenseBytes; ++i) {
    size += StoreVarint(payload + size,
                        static_cast<uint32_t>(values[i] - values[i - 1]) - 1);
  }
  uint32_t header = key | ((count - 1) << kBlockCountShift);
  if (size >= kBlockDenseBytes) {
    header |= kBlockDenseFlag;
    uint64_t words[kBlockWords] = {};
    for (uint32_t i = 0; i < count; ++i) {
      const uint32_t off = static_cast<uint32_t>(values[i] - base);
      words[off >> 6] |= uint64_t{1} << (off & 63);
    }
    for (uint32_t w = 0; w < kBlockWords; ++w) {
      StoreLE64(payload + w * 8, words[w]);
    }
    size = kBlockDenseBytes;
  }
  StoreLE32(out, header);
  return 4 + size;
}

/// The one encoder behind Build and IsEncodingOf. It hands the blob of
/// `num_lists` lists to `sink` piece by piece, as
/// sink.Put(offset, bytes, n): the header's first 16 bytes, the
/// directory's padding, each list's blocks followed by its directory
/// entry, and the header's two totals once known; then sink.End(size)
/// with the blob's length. Returns false as soon as the sink does.
template <typename Sink>
bool Encode(int32_t num_lists, const CompressedPostings::ListAt& list_at,
            int32_t universe, Sink& sink) {
  MROAM_CHECK(num_lists >= 0);
  MROAM_CHECK(universe >= 0 && int64_t{universe} <= kMaxUniverse);
  const auto lists = static_cast<uint32_t>(num_lists);
  uint8_t head[16];
  StoreLE32(head, kPostingsMagic);
  StoreLE32(head + 4, lists);
  StoreLE32(head + 8, static_cast<uint32_t>(universe));
  StoreLE32(head + 12, 0);  // reserved
  static constexpr uint8_t kZeros[kPostingsAlignment] = {};
  const size_t data_start = DataStart(lists);
  if (!sink.Put(0, head, sizeof(head)) ||
      !sink.Put(DirEnd(lists), kZeros, data_start - DirEnd(lists))) {
    return false;
  }

  uint64_t total_count = 0;
  uint64_t data_bytes = 0;
  uint8_t block[kBlockScratchBytes];
  for (int32_t k = 0; k < num_lists; ++k) {
    const std::span<const int32_t> list = list_at(k);
    const uint64_t offset = data_bytes;
    uint32_t blocks = 0;
    size_t i = 0;
    while (i < list.size()) {
      const int32_t v = list[i];
      MROAM_CHECK(v >= 0 && v < universe);
      MROAM_CHECK(i == 0 || list[i - 1] < v);  // sorted, duplicate-free
      const uint32_t key = static_cast<uint32_t>(v) >> kBlockSpanBits;
      size_t j = i + 1;
      while (j < list.size() &&
             (static_cast<uint32_t>(list[j]) >> kBlockSpanBits) == key) {
        MROAM_CHECK(list[j - 1] < list[j]);
        ++j;
      }
      const size_t n = EncodeBlock(key, list.data() + i,
                                   static_cast<uint32_t>(j - i), block);
      if (!sink.Put(data_start + data_bytes, block, n)) return false;
      data_bytes += n;
      ++blocks;
      i = j;
    }
    uint8_t entry[kPostingsDirEntryBytes];
    StoreLE64(entry, offset);
    StoreLE32(entry + 8, static_cast<uint32_t>(list.size()));
    StoreLE32(entry + 12, blocks);
    // Entry k starts where a directory of k entries would end.
    if (!sink.Put(DirEnd(static_cast<uint32_t>(k)), entry, sizeof(entry))) {
      return false;
    }
    total_count += list.size();
  }

  uint8_t totals[16];
  StoreLE64(totals, total_count);
  StoreLE64(totals + 8, data_bytes);
  return sink.Put(sizeof(head), totals, sizeof(totals)) &&
         sink.End(data_start + data_bytes);
}

/// Build's sink: writes each piece into the blob, growing it as needed.
class AppendSink {
 public:
  explicit AppendSink(std::string* blob) : blob_(blob) {}
  bool Put(size_t offset, const uint8_t* bytes, size_t n) {
    if (blob_->size() < offset + n) blob_->resize(offset + n);
    std::memcpy(blob_->data() + offset, bytes, n);
    return true;
  }
  bool End(size_t size) { return blob_->size() == size; }

 private:
  std::string* blob_;
};

/// IsEncodingOf's sink: compares each piece with the stored blob in place.
class CompareSink {
 public:
  explicit CompareSink(std::string_view blob) : blob_(blob) {}
  bool Put(size_t offset, const uint8_t* bytes, size_t n) const {
    return offset <= blob_.size() && n <= blob_.size() - offset &&
           std::memcmp(blob_.data() + offset, bytes, n) == 0;
  }
  bool End(size_t size) const { return blob_.size() == size; }

 private:
  std::string_view blob_;
};

/// Bounds-checked LEB128 read for Validate. Returns nullptr on overrun or
/// an over-long (> 32-bit) encoding.
const uint8_t* ReadVarintChecked(const uint8_t* p, const uint8_t* end,
                                 uint32_t* out) {
  uint32_t value = 0;
  uint32_t shift = 0;
  while (true) {
    if (p == end || shift > 28) return nullptr;
    const uint8_t byte = *p++;
    value |= static_cast<uint32_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) break;
    shift += 7;
  }
  *out = value;
  return p;
}

common::Status Corrupt(const std::string& what) {
  return common::Status::DataLoss("compressed postings: " + what);
}

}  // namespace

CompressedPostings CompressedPostings::Build(int32_t num_lists,
                                             const ListAt& list_at,
                                             int32_t universe) {
  CompressedPostings postings;
  AppendSink sink(&postings.owned_);
  const bool complete = Encode(num_lists, list_at, universe, sink);
  MROAM_DCHECK(complete);
  postings.bytes_ = postings.owned_;
  postings.Bind();
  MROAM_DCHECK(postings.Validate().ok());
  return postings;
}

bool CompressedPostings::IsEncodingOf(int32_t num_lists,
                                      const ListAt& list_at,
                                      int32_t universe) const {
  CompareSink sink(bytes_);
  return Encode(num_lists, list_at, universe, sink);
}

common::Result<CompressedPostings> CompressedPostings::FromBytes(
    std::string_view bytes, Ownership ownership) {
  CompressedPostings postings;
  if (ownership == Ownership::kCopy) {
    postings.owned_.assign(bytes.data(), bytes.size());
    postings.bytes_ = postings.owned_;
  } else {
    postings.bytes_ = bytes;
  }
  postings.Bind();
  MROAM_RETURN_IF_ERROR(postings.Validate());
  return postings;
}

void CompressedPostings::Bind() {
  data_ = nullptr;
  num_lists_ = 0;
  universe_ = 0;
  total_count_ = 0;
  data_bytes_ = 0;
  if (bytes_.size() < kPostingsHeaderBytes) return;
  const uint8_t* p = Data();
  if (LoadLE32(p) != kPostingsMagic) return;
  num_lists_ = LoadLE32(p + 4);
  universe_ = static_cast<int32_t>(LoadLE32(p + 8));
  total_count_ = LoadLE64(p + 16);
  data_bytes_ = LoadLE64(p + 24);
  const size_t data_start = DataStart(num_lists_);
  if (bytes_.size() >= data_start) data_ = Data() + data_start;
}

void CompressedPostings::Decode(int32_t list, std::vector<int32_t>* out) const {
  out->reserve(out->size() + ListSize(list));
  ForEach(list, [out](int32_t v) { out->push_back(v); });
}

common::Status CompressedPostings::Validate() const {
  if (bytes_.size() < kPostingsHeaderBytes) {
    return Corrupt("blob shorter than its fixed header");
  }
  const uint8_t* head = Data();
  if (LoadLE32(head) != kPostingsMagic) return Corrupt("bad magic");
  if (LoadLE32(head + 12) != 0) return Corrupt("reserved header word not zero");
  if (int64_t{universe_} > kMaxUniverse || universe_ < 0) {
    return Corrupt("universe exceeds the representable key range");
  }
  const size_t dir_end = DirEnd(num_lists_);
  const size_t data_start = DataStart(num_lists_);
  if (bytes_.size() != data_start + data_bytes_) {
    return Corrupt("blob size disagrees with header data_bytes");
  }
  for (size_t i = dir_end; i < data_start; ++i) {
    if (head[i] != 0) return Corrupt("directory padding not zero");
  }

  const uint8_t* const data = head + data_start;
  const uint8_t* const end = data + data_bytes_;
  uint64_t running_offset = 0;
  uint64_t running_total = 0;
  for (uint32_t list = 0; list < num_lists_; ++list) {
    const uint8_t* entry = head + kPostingsHeaderBytes +
                           static_cast<size_t>(list) * kPostingsDirEntryBytes;
    const uint64_t offset = LoadLE64(entry);
    const uint32_t count = LoadLE32(entry + 8);
    const uint32_t blocks = LoadLE32(entry + 12);
    if (offset != running_offset) {
      return Corrupt("directory offsets not contiguous");
    }
    const uint8_t* p = data + offset;
    int64_t prev = -1;
    uint64_t decoded = 0;
    int64_t prev_key = -1;
    for (uint32_t b = 0; b < blocks; ++b) {
      if (end - p < 4) return Corrupt("block header past the data area");
      const uint32_t header = LoadLE32(p);
      p += 4;
      if (header & kBlockReservedMask) {
        return Corrupt("reserved block-header bits set");
      }
      const uint32_t key = header & kBlockKeyMask;
      if (static_cast<int64_t>(key) <= prev_key) {
        return Corrupt("block keys not strictly increasing");
      }
      prev_key = key;
      const uint32_t block_count =
          ((header & kBlockCountMask) >> kBlockCountShift) + 1;
      const int64_t base = int64_t{key} << kBlockSpanBits;
      if (header & kBlockDenseFlag) {
        if (end - p < static_cast<ptrdiff_t>(kBlockDenseBytes)) {
          return Corrupt("dense payload past the data area");
        }
        uint32_t pop = 0;
        int64_t highest = -1;
        for (uint32_t w = 0; w < kBlockWords; ++w) {
          const uint64_t word = LoadLE64(p + w * 8);
          pop += static_cast<uint32_t>(std::popcount(word));
          if (word != 0) {
            highest = base + w * 64 + (63 - std::countl_zero(word));
          }
        }
        if (pop != block_count) {
          return Corrupt("dense popcount disagrees with the block header");
        }
        if (highest >= universe_) {
          return Corrupt("dense bit set past the universe");
        }
        prev = highest;
        p += kBlockDenseBytes;
      } else {
        int64_t v = base;
        for (uint32_t i = 0; i < block_count; ++i) {
          uint32_t raw;
          const uint8_t* next = ReadVarintChecked(p, end, &raw);
          if (next == nullptr) return Corrupt("truncated or over-long varint");
          p = next;
          v += (i == 0) ? raw : (int64_t{raw} + 1);
          if (v >= base + kBlockSpan) {
            return Corrupt("sparse value escapes its block span");
          }
          if (v >= universe_) return Corrupt("sparse value past the universe");
          prev = v;
        }
      }
      decoded += block_count;
    }
    if (decoded != count) {
      return Corrupt("decoded count disagrees with the directory");
    }
    (void)prev;
    running_offset = static_cast<uint64_t>(p - data);
    running_total += count;
  }
  if (running_offset != data_bytes_) {
    return Corrupt("data area larger than the sum of its lists");
  }
  if (running_total != total_count_) {
    return Corrupt("total count disagrees with the header");
  }
  return common::Status::Ok();
}

}  // namespace mroam::cindex
