#include "io/mmap_snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "io/snapshot_io.h"
#include "io/snapshot_wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mroam::io {

using common::Result;
using common::Status;

MappedSnapshot::MappedSnapshot(MappedSnapshot&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      len_(std::exchange(other.len_, 0)),
      index_(std::move(other.index_)),
      book_(std::move(other.book_)) {}

MappedSnapshot& MappedSnapshot::operator=(MappedSnapshot&& other) noexcept {
  if (this != &other) {
    Unmap();
    map_ = std::exchange(other.map_, nullptr);
    len_ = std::exchange(other.len_, 0);
    index_ = std::move(other.index_);
    book_ = std::move(other.book_);
  }
  return *this;
}

MappedSnapshot::~MappedSnapshot() { Unmap(); }

void MappedSnapshot::Unmap() {
  if (map_ != nullptr) {
    ::munmap(map_, len_);
    map_ = nullptr;
    len_ = 0;
  }
}

Result<MappedSnapshot> MappedSnapshot::Map(const std::string& path) {
  MROAM_TRACE_SPAN("io.snapshot_map");
  // Chaos: lets mroam_serve's --mmap failure exit path be exercised
  // without corrupting a file on disk (MROAM_FAULT="io.mmap_map=1").
  if (MROAM_FAULT_POINT("io.mmap_map").fire) {
    return Status::IoError("fault injection: io.mmap_map armed for " + path);
  }
  common::Stopwatch watch;

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("snapshot not found: " + path);
    }
    return Status::IoError("cannot open snapshot " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("cannot stat snapshot " + path + ": " +
                           std::strerror(err));
  }
  const size_t len = static_cast<size_t>(st.st_size);
  if (len < kSnapshotFileHeaderBytes) {
    ::close(fd);
    return Status::DataLoss("snapshot truncated in file header at offset 0");
  }
  void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) {
    return Status::IoError("cannot mmap snapshot " + path + ": " +
                           std::strerror(errno));
  }

  MappedSnapshot snapshot;
  snapshot.map_ = map;
  snapshot.len_ = len;
  const std::string_view data(static_cast<const char*>(map), len);
  MROAM_ASSIGN_OR_RETURN(wire::SectionTableV2 table,
                         wire::WalkSnapshot(data, path));
  for (SnapshotSection required :
       {SnapshotSection::kMeta, SnapshotSection::kCompressedIncidence,
        SnapshotSection::kCompressedCovering}) {
    if (!table.seen[static_cast<uint32_t>(required)]) {
      return Status::DataLoss(
          "snapshot is missing section id " +
          std::to_string(static_cast<uint32_t>(required)));
    }
  }
  // Only lambda is needed from the meta section: the entity counts come
  // from (and are cross-checked against) the blob headers themselves, and
  // the dataset geometry stays untouched on disk.
  MROAM_ASSIGN_OR_RETURN(
      wire::MetaSection meta,
      wire::DecodeMeta(
          table.payloads[static_cast<uint32_t>(SnapshotSection::kMeta)]));
  // The zero-copy heart: both blobs are borrowed straight out of the
  // mapping (FromBytes still runs the full structural validation), and
  // FromCompressed cross-checks their shapes against each other.
  MROAM_ASSIGN_OR_RETURN(
      cindex::CompressedPostings covered,
      cindex::CompressedPostings::FromBytes(
          table.payloads[static_cast<uint32_t>(
              SnapshotSection::kCompressedIncidence)],
          cindex::Ownership::kBorrow));
  MROAM_ASSIGN_OR_RETURN(
      cindex::CompressedPostings covering,
      cindex::CompressedPostings::FromBytes(
          table.payloads[static_cast<uint32_t>(
              SnapshotSection::kCompressedCovering)],
          cindex::Ownership::kBorrow));
  if (covered.num_lists() != meta.num_billboards ||
      covered.universe() != static_cast<int32_t>(meta.num_trajectories)) {
    return Status::DataLoss(
        "snapshot compressed incidence shape disagrees with meta section");
  }
  snapshot.index_ = influence::InfluenceIndex::FromCompressed(
      std::move(covered), std::move(covering), meta.lambda);

  if (table.seen[static_cast<uint32_t>(SnapshotSection::kContractBook)]) {
    MROAM_ASSIGN_OR_RETURN(
        snapshot.book_,
        wire::DecodeBook(table.payloads[static_cast<uint32_t>(
            SnapshotSection::kContractBook)]));
  }

  MROAM_COUNTER_ADD("io.snapshot_maps", 1);
  MROAM_HISTOGRAM_OBSERVE("io.snapshot_map_seconds",
                          watch.ElapsedSeconds());
  MROAM_LOG(Info) << "snapshot mapped from " << path << " (" << len
                  << " bytes, " << meta.num_billboards << " billboards, "
                  << meta.num_trajectories << " trajectories, "
                  << snapshot.book_.entries.size()
                  << " restored contracts) in " << watch.ElapsedSeconds()
                  << "s";
  return snapshot;
}

}  // namespace mroam::io
