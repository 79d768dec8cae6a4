#ifndef MROAM_IO_SNAPSHOT_IO_H_
#define MROAM_IO_SNAPSHOT_IO_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "influence/influence_index.h"
#include "market/contract_book.h"
#include "model/dataset.h"

namespace mroam::io {

// ---------------------------------------------------------------------------
// Binary index snapshots (docs/snapshot_format.md).
//
// A snapshot persists a model::Dataset together with its fully built
// influence::InfluenceIndex so a serving process (mroam_serve) cold-starts
// in milliseconds instead of re-parsing CSVs and recomputing the
// O(|U| x |T|) meet model. The file is a fixed header followed by
// length-prefixed sections, each closed by a CRC-32 of its payload; every
// integer is little-endian, every double is its IEEE-754 bit pattern, so a
// round trip is bit-exact.
//
// The format is version 2. The incidence and reverse-covering lists are
// stored as cindex compressed-posting blobs, with 16-byte section headers
// and zero padding that places every payload on a 64-byte file offset —
// the exact owned layout of cindex::CompressedPostings, so MappedSnapshot
// (mmap_snapshot.h) can borrow the blobs straight out of a mapping and
// serve with zero decoded copies. The file also carries the serving
// layer's open contract book, so a drained server restores its active
// contracts on restart. Version 1 (flat int32 lists) is retired: both
// loaders reject it like any other unsupported version.
// ---------------------------------------------------------------------------

/// First 8 bytes of every snapshot file.
inline constexpr char kSnapshotMagic[8] = {'M', 'R', 'O', 'A',
                                           'M', 'S', 'N', 'P'};

/// The one on-disk version SaveIndexSnapshot writes and the loaders read.
inline constexpr uint32_t kSnapshotVersion = 2;

/// Section identifiers. Each section appears at most once; kEnd
/// terminates the file. Ids 4 and 5 held the retired version 1's flat
/// lists: they stay reserved, and the loaders reject them as unknown.
enum class SnapshotSection : uint32_t {
  kEnd = 0,            ///< empty payload; must be last
  kMeta = 1,           ///< dataset name, lambda, entity counts
  kBillboards = 2,     ///< locations + costs, id = position
  kTrajectories = 3,   ///< timing + points, id = position
  kCompressedIncidence = 6,  ///< covered lists as a cindex CPB1 blob
  kCompressedCovering = 7,   ///< covering lists as a cindex CPB1 blob
  kContractBook = 8,         ///< the serving layer's open book
};

/// Bytes of a section header: id (u32) + pad (u32) + payload length
/// (u64). `pad` zero bytes follow the header so the payload starts on a
/// 64-byte file offset; the payload follows, then its CRC-32 (u32).
/// Exposed for the format tests, which walk sections to tamper with
/// specific payloads.
inline constexpr size_t kSnapshotSectionHeaderBytesV2 = 16;
/// Bytes of the file header: magic (8) + version (u32).
inline constexpr size_t kSnapshotFileHeaderBytes = 12;

/// A loaded snapshot: the dataset, its prebuilt index, and the serving
/// layer's contract book at save time (empty for snapshots saved outside
/// a serving drain).
struct IndexSnapshot {
  model::Dataset dataset;
  influence::InfluenceIndex index;
  market::ContractBook book;
};

/// Writes `dataset` + `index` (+ the open contract `book`, if any) to
/// `path`, compressing the index's plain lists into the two postings
/// sections at save time. Parent directories are created; the bytes land
/// in a temp file in the target directory which is atomically renamed
/// over `path`, so a crash mid-save (or the armed "io.snapshot_write"
/// fault point) can never leave a truncated snapshot under the final
/// name. Fails with kInvalidArgument on an empty dataset, when `index`
/// does not match `dataset` (entity counts), or when `index` is
/// compressed (has_plain() false — there is nothing to encode from);
/// kIoError on filesystem trouble.
common::Status SaveIndexSnapshot(
    const std::string& path, const model::Dataset& dataset,
    const influence::InfluenceIndex& index,
    const market::ContractBook& book = market::ContractBook{});

/// Reads a snapshot into a plain-list index. Corruption is caught in
/// layers: framing damage (bad magic, unsupported version, truncation,
/// CRC mismatch, misaligned payload, unknown/missing/duplicate sections)
/// returns a typed error; the compressed blobs then pass their full
/// structural validation, are decoded, and re-validated through the
/// InfluenceIndex::FromIncidence preconditions (sorted, duplicate-free,
/// in-range lists — MROAM_CHECK). Finally both directions are re-encoded
/// and must be byte-identical to the stored blobs (the codec is
/// deterministic, so any inconsistency is corruption).
common::Result<IndexSnapshot> LoadIndexSnapshot(const std::string& path);

}  // namespace mroam::io

#endif  // MROAM_IO_SNAPSHOT_IO_H_
