#include "io/mmap_snapshot.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "io/snapshot_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mroam::io {

using common::Result;
using common::Status;

namespace {

/// The bytes from the first to the last of the three postings blobs: all
/// the index borrows, and so all a mapped boot serves.
std::string_view ServedBlobs(const wire::SectionTableV2& table) {
  const char* begin = nullptr;
  const char* end = nullptr;
  for (SnapshotSection id :
       {SnapshotSection::kCompressedIncidence,
        SnapshotSection::kCompressedCovering, SnapshotSection::kCoveredIds}) {
    const std::string_view blob = table.payloads[static_cast<uint32_t>(id)];
    begin = begin == nullptr ? blob.data() : std::min(begin, blob.data());
    end = std::max(end, blob.data() + blob.size());
  }
  return {begin, static_cast<size_t>(end - begin)};
}

}  // namespace

Result<MappedSnapshot> MappedSnapshot::Map(const std::string& path) {
  MROAM_TRACE_SPAN("io.snapshot_map");
  // Chaos: lets mroam_serve's --mmap failure exit path be exercised
  // without corrupting a file on disk (MROAM_FAULT="io.mmap_map=1").
  if (MROAM_FAULT_POINT("io.mmap_map").fire) {
    return Status::IoError("fault injection: io.mmap_map armed for " + path);
  }
  common::Stopwatch watch;

  MappedSnapshot snapshot;
  MROAM_ASSIGN_OR_RETURN(snapshot.file_, wire::MappedFile::Open(path));
  MROAM_ASSIGN_OR_RETURN(wire::SectionTableV2 table,
                         wire::WalkSnapshot(snapshot.file_.data(), path));
  // The zero-copy heart: all three blobs are borrowed straight out of the
  // mapping (each still runs the full structural validation), and the
  // dataset sections stay untouched on disk.
  MROAM_ASSIGN_OR_RETURN(wire::IndexSections sections,
                         wire::BorrowIndexSections(table));
  snapshot.index_ = influence::InfluenceIndex::FromCompressed(
      std::move(sections.covered), std::move(sections.covering),
      std::move(sections.dataset_ids), sections.meta.lambda);

  if (table.seen[static_cast<uint32_t>(SnapshotSection::kContractBook)]) {
    MROAM_ASSIGN_OR_RETURN(
        snapshot.book_,
        wire::DecodeBook(table.payloads[static_cast<uint32_t>(
            SnapshotSection::kContractBook)]));
  }
  // Every section has passed its checks, and nothing reads the dataset
  // sections or the book again: keep only the blobs' pages resident.
  snapshot.file_.ReleaseOutside(ServedBlobs(table));

  MROAM_COUNTER_ADD("io.snapshot_maps", 1);
  MROAM_HISTOGRAM_OBSERVE("io.snapshot_map_seconds",
                          watch.ElapsedSeconds());
  MROAM_LOG(Info) << "snapshot mapped from " << path << " ("
                  << snapshot.file_bytes() << " bytes, "
                  << sections.meta.num_billboards << " billboards, "
                  << sections.meta.num_trajectories << " trajectories, "
                  << snapshot.index_.num_covered() << " covered, "
                  << snapshot.book_.entries.size()
                  << " restored contracts) in " << watch.ElapsedSeconds()
                  << "s";
  return snapshot;
}

}  // namespace mroam::io
