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
// The format is version 3. The incidence and reverse-covering lists are
// stored over the index's compacted universe (the trajectories some board
// covers) as cindex compressed-posting blobs, and a third blob lists the
// covered trajectories' dataset ids. 16-byte section headers and zero
// padding place every payload on a 64-byte file offset — the exact owned
// layout of cindex::CompressedPostings, so MappedSnapshot (mmap_snapshot.h)
// can borrow the blobs straight out of a mapping and serve with zero
// decoded copies. The file also carries the serving layer's open contract
// book, so a drained server restores its active contracts on restart.
// Neither boot decodes the dataset's points: a boot keeps the postings and
// the book, and ResaveIndexSnapshot re-saves by copying the other sections
// byte for byte. Versions 1 and 2 are retired: both loaders reject them
// like any other unsupported version.
// ---------------------------------------------------------------------------

/// First 8 bytes of every snapshot file.
inline constexpr char kSnapshotMagic[8] = {'M', 'R', 'O', 'A',
                                           'M', 'S', 'N', 'P'};

/// The one on-disk version SaveIndexSnapshot writes and the loaders read.
inline constexpr uint32_t kSnapshotVersion = 3;

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
  kCoveredIds = 9,  ///< dataset ids of the covered trajectories (CPB1)
};

/// Bytes of a section header: id (u32) + pad (u32) + payload length
/// (u64). `pad` zero bytes follow the header so the payload starts on a
/// 64-byte file offset; the payload follows, then its CRC-32 (u32).
/// Exposed for the format tests, which walk sections to tamper with
/// specific payloads.
inline constexpr size_t kSnapshotSectionHeaderBytesV2 = 16;
/// Bytes of the file header: magic (8) + version (u32).
inline constexpr size_t kSnapshotFileHeaderBytes = 12;

/// A loaded snapshot: the prebuilt index and the serving layer's contract
/// book at save time (empty for snapshots saved outside a serving drain).
/// The dataset's billboards and trajectory points stay in the file.
struct IndexSnapshot {
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

/// Writes a copy of the snapshot at `source` to `path` with `book` as its
/// contract book: every other section is copied byte for byte, so a boot
/// that keeps no dataset (either snapshot boot) can still save its book.
/// It goes through SaveIndexSnapshot's atomic temp-and-rename writer and
/// its "io.snapshot_write" fault point, and `source` may equal `path`.
/// Fails like a load on a missing or damaged `source`, and with
/// kFailedPrecondition when `source` does not hold `index` (its incidence
/// section is not `index`'s encoding).
common::Status ResaveIndexSnapshot(const std::string& source,
                                   const std::string& path,
                                   const influence::InfluenceIndex& index,
                                   const market::ContractBook& book);

/// Reads a snapshot into a plain-list index. The file is mapped for the
/// decode and unmapped before returning; a path that is not a regular
/// file is kInvalidArgument. Corruption is caught in layers: framing
/// damage (bad magic, unsupported version, truncation, CRC mismatch,
/// misaligned payload, unknown/missing/duplicate sections) returns a
/// typed error; the compressed blobs then pass their full structural
/// validation, their shapes are checked against each other and the meta
/// section, and every covered trajectory must have 1..kMaxCoveringBoards
/// covering boards (kDataLoss otherwise). The billboards and trajectories
/// sections are walked for their counts and for at least one point per
/// trajectory, and no point is kept. Finally both directions are
/// re-encoded from the rebuilt index and must be byte-identical to the
/// stored blobs (the codec is deterministic, so any inconsistency is
/// corruption).
common::Result<IndexSnapshot> LoadIndexSnapshot(const std::string& path);

}  // namespace mroam::io

#endif  // MROAM_IO_SNAPSHOT_IO_H_
