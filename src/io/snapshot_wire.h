#ifndef MROAM_IO_SNAPSHOT_WIRE_H_
#define MROAM_IO_SNAPSHOT_WIRE_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cindex/postings.h"
#include "common/crc32.h"
#include "common/status.h"
#include "market/contract_book.h"

// ---------------------------------------------------------------------------
// Wire-level helpers shared by the snapshot writer/loader (snapshot_io.cc)
// and the zero-copy mmap loader (mmap_snapshot.cc): the read-only file
// mapping both boots read through, little-endian primitive encoding, a
// bounds-checked cursor, the file-header check and section walker, the
// index sections' shared validation, and the meta and contract-book
// codecs. Internal to src/io — the public surface is snapshot_io.h /
// mmap_snapshot.h.
// ---------------------------------------------------------------------------

namespace mroam::io::wire {

// --- Read-only file mapping ------------------------------------------------

/// A snapshot file mapped read-only for the life of the object: the mmap
/// boot keeps it as long as it serves, the decoded boot and the re-save
/// drop it once done. Move-only.
class MappedFile {
 public:
  /// Maps `path`: kNotFound when it does not exist, kInvalidArgument when
  /// it is not a regular file (a directory, say), kDataLoss when it is
  /// shorter than the file header, kIoError on any other failure.
  static common::Result<MappedFile> Open(const std::string& path);

  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  std::string_view data() const {
    return {static_cast<const char*>(map_), len_};
  }

  /// Drops from memory every page of the mapping outside `keep` (a view
  /// into data()), which is rounded outward to whole pages. The mapping is
  /// read-only and private, so a later read faults the same bytes back in
  /// from the file; a failed madvise only leaves the pages resident.
  void ReleaseOutside(std::string_view keep);

 private:
  void Unmap();

  void* map_ = nullptr;
  size_t len_ = 0;
};

// --- Little-endian primitive encoding --------------------------------------

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

inline void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

inline void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

inline void PutF64(std::string* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

inline void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked reader over a loaded snapshot. Every Get* fails with
/// kDataLoss once the cursor would pass the end, so a truncated file
/// surfaces as a typed error no matter where the cut lands.
class Cursor {
 public:
  Cursor(std::string_view data, std::string_view what)
      : data_(data), what_(what) {}

  size_t offset() const { return offset_; }
  size_t remaining() const { return data_.size() - offset_; }

  common::Status Skip(size_t n) {
    if (remaining() < n) return Truncated();
    offset_ += n;
    return common::Status::Ok();
  }

  common::Result<uint32_t> GetU32() {
    if (remaining() < 4) return Truncated();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(
               static_cast<unsigned char>(data_[offset_ + i]))
           << (8 * i);
    }
    offset_ += 4;
    return v;
  }

  common::Result<uint64_t> GetU64() {
    if (remaining() < 8) return Truncated();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(
               static_cast<unsigned char>(data_[offset_ + i]))
           << (8 * i);
    }
    offset_ += 8;
    return v;
  }

  common::Result<int32_t> GetI32() {
    MROAM_ASSIGN_OR_RETURN(uint32_t v, GetU32());
    return static_cast<int32_t>(v);
  }

  common::Result<int64_t> GetI64() {
    MROAM_ASSIGN_OR_RETURN(uint64_t v, GetU64());
    return static_cast<int64_t>(v);
  }

  common::Result<double> GetF64() {
    MROAM_ASSIGN_OR_RETURN(uint64_t v, GetU64());
    return std::bit_cast<double>(v);
  }

  common::Result<std::string> GetString() {
    MROAM_ASSIGN_OR_RETURN(uint32_t len, GetU32());
    if (remaining() < len) return Truncated();
    std::string s(data_.substr(offset_, len));
    offset_ += len;
    return s;
  }

  common::Result<std::string_view> GetBytes(size_t n) {
    if (remaining() < n) return Truncated();
    std::string_view view = data_.substr(offset_, n);
    offset_ += n;
    return view;
  }

 private:
  common::Status Truncated() const {
    return common::Status::DataLoss(
        "snapshot truncated in " + std::string(what_) + " at offset " +
        std::to_string(offset_));
  }

  std::string_view data_;
  std::string_view what_;
  size_t offset_ = 0;
};

// --- Meta section codec ----------------------------------------------------

/// The kMeta payload: dataset name, lambda and entity counts.
struct MetaSection {
  std::string name;
  double lambda = 0.0;
  uint32_t num_billboards = 0;
  uint32_t num_trajectories = 0;
};

inline common::Result<MetaSection> DecodeMeta(std::string_view payload) {
  Cursor cur(payload, "meta section");
  MetaSection meta;
  MROAM_ASSIGN_OR_RETURN(meta.name, cur.GetString());
  MROAM_ASSIGN_OR_RETURN(meta.lambda, cur.GetF64());
  MROAM_ASSIGN_OR_RETURN(meta.num_billboards, cur.GetU32());
  MROAM_ASSIGN_OR_RETURN(meta.num_trajectories, cur.GetU32());
  return meta;
}

// --- Contract-book codec (kContractBook section) ---------------------------

inline std::string EncodeBook(const market::ContractBook& book) {
  std::string out;
  PutI32(&out, book.day);
  PutI64(&out, book.next_ticket);
  PutU32(&out, static_cast<uint32_t>(book.entries.size()));
  for (const market::ContractBookEntry& entry : book.entries) {
    PutI32(&out, entry.terms.id);
    PutI64(&out, entry.terms.demand);
    PutF64(&out, entry.terms.payment);
    PutI64(&out, entry.ticket);
    PutI32(&out, entry.expires_on);
    PutU32(&out, static_cast<uint32_t>(entry.billboards.size()));
    for (model::BillboardId o : entry.billboards) {
      PutI32(&out, static_cast<int32_t>(o));
    }
  }
  return out;
}

inline common::Result<market::ContractBook> DecodeBook(
    std::string_view payload) {
  Cursor cur(payload, "contract-book section");
  market::ContractBook book;
  MROAM_ASSIGN_OR_RETURN(book.day, cur.GetI32());
  MROAM_ASSIGN_OR_RETURN(book.next_ticket, cur.GetI64());
  MROAM_ASSIGN_OR_RETURN(uint32_t count, cur.GetU32());
  book.entries.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    market::ContractBookEntry& entry = book.entries[i];
    MROAM_ASSIGN_OR_RETURN(entry.terms.id, cur.GetI32());
    MROAM_ASSIGN_OR_RETURN(entry.terms.demand, cur.GetI64());
    MROAM_ASSIGN_OR_RETURN(entry.terms.payment, cur.GetF64());
    MROAM_ASSIGN_OR_RETURN(entry.ticket, cur.GetI64());
    MROAM_ASSIGN_OR_RETURN(entry.expires_on, cur.GetI32());
    MROAM_ASSIGN_OR_RETURN(uint32_t boards, cur.GetU32());
    entry.billboards.resize(boards);
    for (uint32_t k = 0; k < boards; ++k) {
      MROAM_ASSIGN_OR_RETURN(int32_t id, cur.GetI32());
      entry.billboards[k] = static_cast<model::BillboardId>(id);
    }
  }
  if (cur.remaining() != 0) {
    return common::Status::DataLoss(
        "trailing bytes in contract-book section");
  }
  return book;
}

// --- Section framing (unchanged since version 2) ---------------------------

/// Payload alignment of every section — matches
/// cindex::kPostingsAlignment so a mapped compressed blob can be borrowed
/// in place.
inline constexpr size_t kSectionAlignmentV2 = 64;

/// Payload views of a walked file, indexed by section id. Views point
/// into the walked buffer (heap copy or mmap) — they live as long as it
/// does.
struct SectionTableV2 {
  std::vector<std::string_view> payloads;
  std::vector<bool> seen;
};

/// Checks the 12-byte file header of `data` (the whole file) and walks
/// its section chain: per section a 16-byte header {id u32, pad u32, len
/// u64}, `pad` zero bytes placing the payload on a 64-byte file offset,
/// the payload, then its CRC-32. A foreign magic or any version other
/// than kSnapshotVersion (the retired versions 1 and 2 included) fails
/// with kInvalidArgument naming `path`. Framing damage fails with
/// kDataLoss: truncation, misalignment, a CRC mismatch, an unknown or
/// reserved section id, a repeated id, or a missing terminating kEnd
/// (id 0) or bytes after it.
common::Result<SectionTableV2> WalkSnapshot(std::string_view data,
                                            const std::string& path);

/// The index sections of a walked file: the meta section and the three
/// postings blobs, borrowed from the walked buffer.
struct IndexSections {
  MetaSection meta;
  cindex::CompressedPostings covered;
  cindex::CompressedPostings covering;
  cindex::CompressedPostings dataset_ids;
};

/// Decodes the meta section and borrows the incidence, covering and
/// covered-id blobs of `table`, each through its full structural
/// validation, then checks what both boots rely on, with kDataLoss for
/// each violation: the sections are present; the incidence has
/// meta.num_billboards lists; the covering blob is its transpose in
/// shape and total; the id list is one list over meta.num_trajectories
/// (so ascending and in range) as long as the incidence's universe; and
/// every trajectory of that universe is covered by
/// 1..influence::kMaxCoveringBoards boards.
common::Result<IndexSections> BorrowIndexSections(const SectionTableV2& table);

}  // namespace mroam::io::wire

#endif  // MROAM_IO_SNAPSHOT_WIRE_H_
