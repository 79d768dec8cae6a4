#ifndef MROAM_IO_MMAP_SNAPSHOT_H_
#define MROAM_IO_MMAP_SNAPSHOT_H_

#include <cstddef>
#include <string>

#include "common/status.h"
#include "influence/influence_index.h"
#include "io/snapshot_wire.h"
#include "market/contract_book.h"

namespace mroam::io {

// ---------------------------------------------------------------------------
// Zero-copy snapshot serving (docs/snapshot_format.md).
//
// MappedSnapshot mmaps a snapshot and builds an InfluenceIndex whose
// compressed postings and covered-id list BORROW the mapped bytes in
// place — no decoded incidence copy is ever materialized, so cold start
// is page faults plus one CRC pass, not a parse. Every section is still
// CRC-checked, but once all checks pass the pages outside the three
// blobs are dropped, so resident memory is the blobs only. The index has
// no plain lists (InfluenceIndex::has_plain() is false); every consumer
// dispatches through the compressed read path, which CoverageCounter
// engages automatically. ResaveIndexSnapshot (snapshot_io.h) saves its
// book.
//
// The mapping lives exactly as long as the MappedSnapshot: keep it alive
// for the whole serving lifetime of index(). Move-only.
// ---------------------------------------------------------------------------

class MappedSnapshot {
 public:
  /// Maps `path` read-only and validates it as a snapshot: magic,
  /// version (anything but kSnapshotVersion is kInvalidArgument),
  /// framing with 64-byte payload alignment, per-section CRC, the full
  /// structural validation of the three postings blobs and the shape
  /// checks both boots share (wire::BorrowIndexSections). Once every
  /// check has passed, the pages outside the three blobs are released
  /// (MappedFile::ReleaseOutside). The "io.mmap_map" fault point turns a
  /// good file into a typed kIoError (chaos hook for mroam_serve's
  /// exit-status-3 path).
  static common::Result<MappedSnapshot> Map(const std::string& path);

  MappedSnapshot(MappedSnapshot&&) = default;
  MappedSnapshot& operator=(MappedSnapshot&&) = default;

  /// The borrowed-postings index (has_plain() == false). Valid while this
  /// MappedSnapshot is alive.
  const influence::InfluenceIndex& index() const { return index_; }

  /// The contract book stored at save time (empty unless the snapshot was
  /// written by a draining server).
  const market::ContractBook& book() const { return book_; }

  /// Size of the mapped file in bytes.
  size_t file_bytes() const { return file_.data().size(); }

 private:
  MappedSnapshot() = default;

  // Declared first so it is destroyed last: index_ borrows its bytes.
  wire::MappedFile file_;
  influence::InfluenceIndex index_;
  market::ContractBook book_;
};

}  // namespace mroam::io

#endif  // MROAM_IO_MMAP_SNAPSHOT_H_
