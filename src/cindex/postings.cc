#include "cindex/postings.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

namespace mroam::cindex {

namespace {

void PutLE32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

void PutLE64(std::string* out, uint64_t v) {
  PutLE32(out, static_cast<uint32_t>(v & 0xffffffffu));
  PutLE32(out, static_cast<uint32_t>(v >> 32));
}

void PutVarint(std::string* out, uint32_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Encodes one block's values (all sharing `key`, sorted ascending) and
/// appends header + payload to `*out`. Dense exactly when the sparse
/// encoding reaches the dense payload size, so the choice — and therefore
/// the whole blob — is a pure function of the input lists.
void EncodeBlock(uint32_t key, const int32_t* values, uint32_t count,
                 std::string* out, std::string* scratch) {
  const int32_t base = static_cast<int32_t>(key << kBlockSpanBits);
  scratch->clear();
  PutVarint(scratch, static_cast<uint32_t>(values[0] - base));
  for (uint32_t i = 1; i < count; ++i) {
    PutVarint(scratch,
              static_cast<uint32_t>(values[i] - values[i - 1]) - 1);
  }
  const bool dense = scratch->size() >= kBlockDenseBytes;
  uint32_t header = key | ((count - 1) << kBlockCountShift);
  if (dense) header |= kBlockDenseFlag;
  PutLE32(out, header);
  if (dense) {
    uint64_t words[kBlockWords] = {};
    for (uint32_t i = 0; i < count; ++i) {
      const uint32_t off = static_cast<uint32_t>(values[i] - base);
      words[off >> 6] |= uint64_t{1} << (off & 63);
    }
    for (uint32_t w = 0; w < kBlockWords; ++w) PutLE64(out, words[w]);
  } else {
    out->append(*scratch);
  }
}

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

CompressedPostings CompressedPostings::Build(
    const std::vector<std::vector<int32_t>>& lists, int32_t universe) {
  MROAM_CHECK(universe >= 0 && int64_t{universe} <= kMaxUniverse);
  std::string blob;
  blob.reserve(kPostingsHeaderBytes +
               lists.size() * kPostingsDirEntryBytes);

  uint64_t total_count = 0;
  std::string data;
  std::string dir;
  std::string scratch;
  for (const std::vector<int32_t>& list : lists) {
    const uint64_t offset = data.size();
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
      EncodeBlock(key, list.data() + i, static_cast<uint32_t>(j - i), &data,
                  &scratch);
      ++blocks;
      i = j;
    }
    PutLE64(&dir, offset);
    PutLE32(&dir, static_cast<uint32_t>(list.size()));
    PutLE32(&dir, blocks);
    total_count += list.size();
  }

  PutLE32(&blob, kPostingsMagic);
  PutLE32(&blob, static_cast<uint32_t>(lists.size()));
  PutLE32(&blob, static_cast<uint32_t>(universe));
  PutLE32(&blob, 0);  // reserved
  PutLE64(&blob, total_count);
  PutLE64(&blob, data.size());
  blob.append(dir);
  blob.resize((blob.size() + kPostingsAlignment - 1) / kPostingsAlignment *
                  kPostingsAlignment,
              '\0');
  blob.append(data);

  CompressedPostings postings;
  postings.owned_ = std::move(blob);
  postings.bytes_ = postings.owned_;
  postings.Bind();
  MROAM_DCHECK(postings.Validate().ok());
  return postings;
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
  const size_t dir_end = kPostingsHeaderBytes +
                         static_cast<size_t>(num_lists_) *
                             kPostingsDirEntryBytes;
  const size_t data_start = (dir_end + kPostingsAlignment - 1) /
                            kPostingsAlignment * kPostingsAlignment;
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
  const size_t dir_end = kPostingsHeaderBytes +
                         static_cast<size_t>(num_lists_) *
                             kPostingsDirEntryBytes;
  const size_t data_start = (dir_end + kPostingsAlignment - 1) /
                            kPostingsAlignment * kPostingsAlignment;
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
