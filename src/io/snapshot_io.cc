#include "io/snapshot_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "io/snapshot_wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mroam::io {

using common::Result;
using common::Status;
using wire::Cursor;
using wire::PutF64;
using wire::PutString;
using wire::PutU32;
using wire::PutU64;

namespace wire {

Result<MappedFile> MappedFile::Open(const std::string& path) {
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
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::InvalidArgument("snapshot is not a regular file: " +
                                   path);
  }
  const size_t len = static_cast<size_t>(st.st_size);
  if (len < kSnapshotFileHeaderBytes) {
    ::close(fd);
    return Status::DataLoss("snapshot truncated in file header at offset 0");
  }
  void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  const int err = errno;
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) {
    return Status::IoError("cannot mmap snapshot " + path + ": " +
                           std::strerror(err));
  }
  MappedFile file;
  file.map_ = map;
  file.len_ = len;
  return file;
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      len_(std::exchange(other.len_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Unmap();
    map_ = std::exchange(other.map_, nullptr);
    len_ = std::exchange(other.len_, 0);
  }
  return *this;
}

MappedFile::~MappedFile() { Unmap(); }

void MappedFile::ReleaseOutside(std::string_view keep) {
  const auto page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<uintptr_t>(map_);
  const uintptr_t end = begin + len_;
  const auto keep_at = reinterpret_cast<uintptr_t>(keep.data());
  const uintptr_t keep_begin = keep_at / page * page;
  const uintptr_t keep_end = (keep_at + keep.size() + page - 1) / page * page;
  if (keep_begin > begin) {
    ::madvise(map_, keep_begin - begin, MADV_DONTNEED);
  }
  if (end > keep_end) {
    ::madvise(reinterpret_cast<void*>(keep_end), end - keep_end,
              MADV_DONTNEED);
  }
}

void MappedFile::Unmap() {
  if (map_ != nullptr) {
    ::munmap(map_, len_);
    map_ = nullptr;
    len_ = 0;
  }
}

namespace {

/// Whether `id` names a section of the current format. The reserved ids
/// (4 and 5, the retired version 1's flat lists) are unknown.
bool KnownSection(uint32_t id) {
  switch (static_cast<SnapshotSection>(id)) {
    case SnapshotSection::kEnd:
    case SnapshotSection::kMeta:
    case SnapshotSection::kBillboards:
    case SnapshotSection::kTrajectories:
    case SnapshotSection::kCompressedIncidence:
    case SnapshotSection::kCompressedCovering:
    case SnapshotSection::kContractBook:
    case SnapshotSection::kCoveredIds:
      return true;
  }
  return false;
}

}  // namespace

Result<SectionTableV2> WalkSnapshot(std::string_view data,
                                    const std::string& path) {
  Cursor header(data, "file header");
  MROAM_ASSIGN_OR_RETURN(std::string_view magic,
                         header.GetBytes(sizeof(kSnapshotMagic)));
  if (std::memcmp(magic.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    return Status::InvalidArgument("not a mroam index snapshot: " + path);
  }
  MROAM_ASSIGN_OR_RETURN(uint32_t version, header.GetU32());
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(version) + " in " +
        path + " (this build reads version " +
        std::to_string(kSnapshotVersion) + " only)");
  }

  constexpr uint32_t kMaxSectionId =
      static_cast<uint32_t>(SnapshotSection::kCoveredIds);
  SectionTableV2 table;
  table.payloads.resize(kMaxSectionId + 1);
  table.seen.assign(kMaxSectionId + 1, false);
  Cursor cur(data, "section chain");
  MROAM_RETURN_IF_ERROR(cur.Skip(kSnapshotFileHeaderBytes));
  bool ended = false;
  while (!ended) {
    MROAM_ASSIGN_OR_RETURN(uint32_t id, cur.GetU32());
    MROAM_ASSIGN_OR_RETURN(uint32_t pad, cur.GetU32());
    MROAM_ASSIGN_OR_RETURN(uint64_t length, cur.GetU64());
    if (!KnownSection(id)) {
      return Status::DataLoss("unknown snapshot section id " +
                              std::to_string(id));
    }
    if (table.seen[id]) {
      return Status::DataLoss("duplicate snapshot section id " +
                              std::to_string(id));
    }
    table.seen[id] = true;
    // The pad must be exactly what places the payload on the next 64-byte
    // file offset, and must be zero bytes — anything else is tampering or
    // a buggy writer, and the zero-copy path depends on the alignment.
    const size_t want_pad =
        (kSectionAlignmentV2 - cur.offset() % kSectionAlignmentV2) %
        kSectionAlignmentV2;
    if (pad != want_pad) {
      return Status::DataLoss(
          "snapshot section " + std::to_string(id) + " pad " +
          std::to_string(pad) + " does not align its payload (want " +
          std::to_string(want_pad) + ")");
    }
    MROAM_ASSIGN_OR_RETURN(std::string_view padding, cur.GetBytes(pad));
    for (char c : padding) {
      if (c != '\0') {
        return Status::DataLoss("snapshot section " + std::to_string(id) +
                                " has nonzero padding");
      }
    }
    MROAM_ASSIGN_OR_RETURN(std::string_view payload,
                           cur.GetBytes(static_cast<size_t>(length)));
    MROAM_ASSIGN_OR_RETURN(uint32_t stored_crc, cur.GetU32());
    const uint32_t actual_crc = common::Crc32(payload);
    if (stored_crc != actual_crc) {
      return Status::DataLoss("CRC mismatch in snapshot section " +
                              std::to_string(id) + " (stored " +
                              std::to_string(stored_crc) + ", computed " +
                              std::to_string(actual_crc) + ")");
    }
    if (id == static_cast<uint32_t>(SnapshotSection::kEnd)) {
      if (length != 0) {
        return Status::DataLoss("snapshot end section carries a payload");
      }
      ended = true;
    } else {
      table.payloads[id] = payload;
    }
  }
  if (cur.remaining() != 0) {
    return Status::DataLoss("trailing bytes after snapshot end section");
  }
  return table;
}

Result<IndexSections> BorrowIndexSections(const SectionTableV2& table) {
  for (SnapshotSection required :
       {SnapshotSection::kMeta, SnapshotSection::kCompressedIncidence,
        SnapshotSection::kCompressedCovering, SnapshotSection::kCoveredIds}) {
    if (!table.seen[static_cast<uint32_t>(required)]) {
      return Status::DataLoss(
          "snapshot is missing section id " +
          std::to_string(static_cast<uint32_t>(required)));
    }
  }
  auto payload = [&table](SnapshotSection id) {
    return table.payloads[static_cast<uint32_t>(id)];
  };
  IndexSections sections;
  MROAM_ASSIGN_OR_RETURN(sections.meta,
                         DecodeMeta(payload(SnapshotSection::kMeta)));
  MROAM_ASSIGN_OR_RETURN(
      sections.covered,
      cindex::CompressedPostings::FromBytes(
          payload(SnapshotSection::kCompressedIncidence),
          cindex::Ownership::kBorrow));
  MROAM_ASSIGN_OR_RETURN(
      sections.covering,
      cindex::CompressedPostings::FromBytes(
          payload(SnapshotSection::kCompressedCovering),
          cindex::Ownership::kBorrow));
  MROAM_ASSIGN_OR_RETURN(
      sections.dataset_ids,
      cindex::CompressedPostings::FromBytes(
          payload(SnapshotSection::kCoveredIds), cindex::Ownership::kBorrow));

  const MetaSection& meta = sections.meta;
  const cindex::CompressedPostings& covered = sections.covered;
  const cindex::CompressedPostings& covering = sections.covering;
  const cindex::CompressedPostings& ids = sections.dataset_ids;
  if (covered.num_lists() != meta.num_billboards) {
    return Status::DataLoss(
        "snapshot compressed incidence shape disagrees with meta section");
  }
  if (covering.num_lists() != static_cast<uint32_t>(covered.universe()) ||
      covering.universe() != static_cast<int32_t>(covered.num_lists()) ||
      covering.total_count() != covered.total_count()) {
    return Status::DataLoss(
        "snapshot covering lists are not the incidence's transpose in "
        "shape");
  }
  if (ids.num_lists() != 1 ||
      ids.universe() != static_cast<int32_t>(meta.num_trajectories) ||
      ids.ListSize(0) != static_cast<uint32_t>(covered.universe())) {
    return Status::DataLoss(
        "snapshot covered-id list does not name the " +
        std::to_string(covered.universe()) + " covered trajectories of " +
        std::to_string(meta.num_trajectories));
  }
  // Counters keep one byte per trajectory, so the file must not cover one
  // more often than that holds — and a trajectory no board covers has no
  // place in the compacted universe.
  std::vector<uint8_t> boards(static_cast<size_t>(covered.universe()), 0);
  int64_t overflow = -1;
  for (uint32_t o = 0; o < covered.num_lists(); ++o) {
    covered.ForEach(static_cast<int32_t>(o), [&](int32_t t) {
      uint8_t& count = boards[static_cast<size_t>(t)];
      if (count == influence::kMaxCoveringBoards) {
        overflow = t;
      } else {
        ++count;
      }
    });
  }
  if (overflow >= 0) {
    return Status::DataLoss(
        "snapshot trajectory " + std::to_string(overflow) +
        " (compacted) is covered by more than " +
        std::to_string(influence::kMaxCoveringBoards) + " boards");
  }
  for (size_t t = 0; t < boards.size(); ++t) {
    if (boards[t] == 0) {
      return Status::DataLoss("snapshot trajectory " + std::to_string(t) +
                              " (compacted) is covered by no board");
    }
  }
  return sections;
}

}  // namespace wire

namespace {

// --- Section payload encoders ----------------------------------------------

std::string EncodeMeta(const model::Dataset& dataset,
                       const influence::InfluenceIndex& index) {
  std::string out;
  PutString(&out, dataset.name);
  PutF64(&out, index.lambda());
  PutU32(&out, static_cast<uint32_t>(dataset.billboards.size()));
  PutU32(&out, static_cast<uint32_t>(dataset.trajectories.size()));
  return out;
}

std::string EncodeBillboards(const model::Dataset& dataset) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(dataset.billboards.size()));
  for (const model::Billboard& b : dataset.billboards) {
    PutF64(&out, b.location.x);
    PutF64(&out, b.location.y);
    PutF64(&out, b.cost);
  }
  return out;
}

std::string EncodeTrajectories(const model::Dataset& dataset) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(dataset.trajectories.size()));
  for (const model::Trajectory& t : dataset.trajectories) {
    PutF64(&out, t.start_time_seconds);
    PutF64(&out, t.travel_time_seconds);
    PutU32(&out, static_cast<uint32_t>(t.points.size()));
    for (const geo::Point& p : t.points) {
      PutF64(&out, p.x);
      PutF64(&out, p.y);
    }
  }
  return out;
}

/// The covering lists of a plain-list index, as the postings encoder
/// reads them.
cindex::CompressedPostings::ListAt CoveringLists(
    const influence::InfluenceIndex& index) {
  return [&index](model::TrajectoryId t) { return index.CoveringOf(t); };
}

/// The compressed postings sections of a plain-list index. The encoder
/// is deterministic, so the same incidence always yields the same bytes:
/// the saver writes these, and the decoded boot checks the stored ones
/// against the same encoder in place (IsEncodingOf).
cindex::CompressedPostings EncodeCovered(
    const influence::InfluenceIndex& index) {
  return cindex::CompressedPostings::Build(index.covered(),
                                           index.num_covered());
}

cindex::CompressedPostings EncodeCovering(
    const influence::InfluenceIndex& index) {
  return cindex::CompressedPostings::Build(
      index.num_covered(), CoveringLists(index), index.num_billboards());
}

/// The covered trajectories' dataset ids, as one list over the dataset.
cindex::CompressedPostings EncodeDatasetIds(
    const influence::InfluenceIndex& index) {
  return cindex::CompressedPostings::Build({index.dataset_ids()},
                                           index.num_trajectories());
}

/// Section framing: 16-byte header, then zero padding placing the payload
/// on a 64-byte file offset, then the payload and its CRC.
void AppendSectionV2(std::string* file, SnapshotSection id,
                     std::string_view payload) {
  const size_t header_end = file->size() + kSnapshotSectionHeaderBytesV2;
  const size_t pad =
      (wire::kSectionAlignmentV2 - header_end % wire::kSectionAlignmentV2) %
      wire::kSectionAlignmentV2;
  PutU32(file, static_cast<uint32_t>(id));
  PutU32(file, static_cast<uint32_t>(pad));
  PutU64(file, payload.size());
  file->append(pad, '\0');
  file->append(payload);
  PutU32(file, common::Crc32(payload));
}

// --- Section payload checks ------------------------------------------------

/// Walks the billboards section without keeping it: the count must match
/// the meta section and every record must be present.
Status CheckBillboards(std::string_view payload, uint32_t expected) {
  Cursor cur(payload, "billboards section");
  MROAM_ASSIGN_OR_RETURN(uint32_t count, cur.GetU32());
  if (count != expected) {
    return Status::DataLoss(
        "snapshot entity counts disagree with meta section");
  }
  // x, y and cost: three doubles per billboard.
  return cur.Skip(size_t{count} * 24);
}

/// Walks the trajectories section without keeping a point: the count must
/// match the meta section, and every trajectory must carry its timing and
/// at least one point.
Status CheckTrajectories(std::string_view payload, uint32_t expected) {
  Cursor cur(payload, "trajectories section");
  MROAM_ASSIGN_OR_RETURN(uint32_t count, cur.GetU32());
  if (count != expected) {
    return Status::DataLoss(
        "snapshot entity counts disagree with meta section");
  }
  for (uint32_t i = 0; i < count; ++i) {
    MROAM_RETURN_IF_ERROR(cur.Skip(16));  // start and travel time
    MROAM_ASSIGN_OR_RETURN(uint32_t npoints, cur.GetU32());
    if (npoints == 0) {
      return Status::DataLoss("snapshot dataset invalid: trajectory " +
                              std::to_string(i) + " has no points");
    }
    MROAM_RETURN_IF_ERROR(cur.Skip(size_t{npoints} * 16));  // x, y
  }
  return Status::Ok();
}

// --- Save ------------------------------------------------------------------

Status ValidateForSave(const model::Dataset& dataset,
                       const influence::InfluenceIndex& index) {
  if (!index.has_plain()) {
    return Status::InvalidArgument(
        "refusing to snapshot a compressed index: the writer encodes from "
        "plain lists (ResaveIndexSnapshot re-saves a snapshot boot)");
  }
  if (dataset.billboards.empty() || dataset.trajectories.empty()) {
    return Status::InvalidArgument(
        "refusing to snapshot an empty dataset (" +
        std::to_string(dataset.billboards.size()) + " billboards, " +
        std::to_string(dataset.trajectories.size()) + " trajectories)");
  }
  if (index.num_billboards() !=
          static_cast<int32_t>(dataset.billboards.size()) ||
      index.num_trajectories() !=
          static_cast<int32_t>(dataset.trajectories.size())) {
    return Status::InvalidArgument(
        "index does not match dataset: index has " +
        std::to_string(index.num_billboards()) + "x" +
        std::to_string(index.num_trajectories()) + ", dataset has " +
        std::to_string(dataset.billboards.size()) + "x" +
        std::to_string(dataset.trajectories.size()));
  }
  std::string problem = model::ValidateDataset(dataset);
  if (!problem.empty()) {
    return Status::InvalidArgument(
        "refusing to snapshot an invalid dataset: " + problem);
  }
  return Status::Ok();
}

/// Writes `file` to `path` through a temp file in the target directory,
/// renamed over `path` only once every byte is on disk — a crash (or the
/// armed "io.snapshot_write" fault point, which simulates one by writing
/// half the bytes and stopping short of the rename) leaves at worst a
/// stray .tmp file, never a truncated snapshot under the final name.
Status WriteFileAtomic(const std::string& path, const std::string& file) {
  std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(target.parent_path(), ec);
    if (ec) {
      return Status::IoError("cannot create snapshot directory " +
                             target.parent_path().string() + ": " +
                             ec.message());
    }
  }
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const bool crash_mid_write = MROAM_FAULT_POINT("io.snapshot_write").fire;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot open snapshot for writing: " + tmp);
    }
    const size_t bytes = crash_mid_write ? file.size() / 2 : file.size();
    out.write(file.data(), static_cast<std::streamsize>(bytes));
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return Status::IoError("short write to snapshot: " + tmp);
    }
  }
  if (crash_mid_write) {
    // Simulated crash: the half-written temp file stays behind (as it
    // would after a real crash) and the target is never touched.
    return Status::IoError("fault injection: io.snapshot_write armed for " +
                           path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return Status::IoError("cannot rename " + tmp + " over " + path);
  }
  return Status::Ok();
}

}  // namespace

Status SaveIndexSnapshot(const std::string& path,
                         const model::Dataset& dataset,
                         const influence::InfluenceIndex& index,
                         const market::ContractBook& book) {
  MROAM_TRACE_SPAN("io.snapshot_save");
  common::Stopwatch watch;
  MROAM_RETURN_IF_ERROR(ValidateForSave(dataset, index));

  std::string file;
  file.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutU32(&file, kSnapshotVersion);
  AppendSectionV2(&file, SnapshotSection::kMeta, EncodeMeta(dataset, index));
  AppendSectionV2(&file, SnapshotSection::kBillboards,
                  EncodeBillboards(dataset));
  AppendSectionV2(&file, SnapshotSection::kTrajectories,
                  EncodeTrajectories(dataset));
  // The compressed blobs' owned layout IS the wire layout: the payloads
  // below are byte-identical to what MappedSnapshot later borrows in
  // place, and to what the loader re-encodes for its integrity check.
  // The book goes last, after every section ResaveIndexSnapshot copies,
  // so a re-save with the same book reproduces the file byte for byte.
  AppendSectionV2(&file, SnapshotSection::kCompressedIncidence,
                  EncodeCovered(index).bytes());
  AppendSectionV2(&file, SnapshotSection::kCompressedCovering,
                  EncodeCovering(index).bytes());
  AppendSectionV2(&file, SnapshotSection::kCoveredIds,
                  EncodeDatasetIds(index).bytes());
  AppendSectionV2(&file, SnapshotSection::kContractBook,
                  wire::EncodeBook(book));
  AppendSectionV2(&file, SnapshotSection::kEnd, "");
  MROAM_RETURN_IF_ERROR(WriteFileAtomic(path, file));
  MROAM_COUNTER_ADD("io.snapshot_saves", 1);
  MROAM_HISTOGRAM_OBSERVE("io.snapshot_save_seconds", watch.ElapsedSeconds());
  MROAM_LOG(Info) << "snapshot (v" << kSnapshotVersion << ") saved to "
                  << path << " (" << file.size() << " bytes, "
                  << dataset.billboards.size() << " billboards, "
                  << dataset.trajectories.size() << " trajectories)";
  return Status::Ok();
}

Status ResaveIndexSnapshot(const std::string& source,
                           const std::string& path,
                           const influence::InfluenceIndex& index,
                           const market::ContractBook& book) {
  MROAM_TRACE_SPAN("io.snapshot_save");
  common::Stopwatch watch;
  std::string file;
  {
    MROAM_ASSIGN_OR_RETURN(wire::MappedFile mapped,
                           wire::MappedFile::Open(source));
    MROAM_ASSIGN_OR_RETURN(wire::SectionTableV2 table,
                           wire::WalkSnapshot(mapped.data(), source));
    constexpr auto kIncidence =
        static_cast<uint32_t>(SnapshotSection::kCompressedIncidence);
    const std::string_view incidence = table.payloads[kIncidence];
    const bool holds_index =
        table.seen[kIncidence] &&
        (index.has_plain() ? EncodeCovered(index).bytes() == incidence
                           : index.compressed_covered().bytes() == incidence);
    if (!holds_index) {
      return Status::FailedPrecondition(
          "refusing to re-save " + source +
          ": its incidence is not the served index's");
    }
    file.reserve(mapped.data().size());
    file.append(kSnapshotMagic, sizeof(kSnapshotMagic));
    PutU32(&file, kSnapshotVersion);
    // Every section but the book and the end marker, in id order: the
    // order SaveIndexSnapshot writes them in, so the copies land at their
    // original offsets.
    for (uint32_t id = 1; id < table.payloads.size(); ++id) {
      if (!table.seen[id] ||
          id == static_cast<uint32_t>(SnapshotSection::kContractBook)) {
        continue;
      }
      AppendSectionV2(&file, static_cast<SnapshotSection>(id),
                      table.payloads[id]);
    }
  }
  AppendSectionV2(&file, SnapshotSection::kContractBook,
                  wire::EncodeBook(book));
  AppendSectionV2(&file, SnapshotSection::kEnd, "");
  MROAM_RETURN_IF_ERROR(WriteFileAtomic(path, file));
  MROAM_COUNTER_ADD("io.snapshot_saves", 1);
  MROAM_HISTOGRAM_OBSERVE("io.snapshot_save_seconds", watch.ElapsedSeconds());
  MROAM_LOG(Info) << "snapshot (v" << kSnapshotVersion << ") re-saved from "
                  << source << " to " << path << " (" << file.size()
                  << " bytes, " << book.entries.size() << " contracts)";
  return Status::Ok();
}

namespace {

Result<IndexSnapshot> DecodeSnapshot(std::string_view data,
                                     const std::string& path) {
  MROAM_ASSIGN_OR_RETURN(wire::SectionTableV2 table,
                         wire::WalkSnapshot(data, path));
  for (SnapshotSection required :
       {SnapshotSection::kBillboards, SnapshotSection::kTrajectories}) {
    if (!table.seen[static_cast<uint32_t>(required)]) {
      return Status::DataLoss(
          "snapshot is missing section id " +
          std::to_string(static_cast<uint32_t>(required)));
    }
  }
  // Borrowing is safe here (`data` outlives the decode), and each blob
  // runs the full structural validation either way.
  MROAM_ASSIGN_OR_RETURN(wire::IndexSections sections,
                         wire::BorrowIndexSections(table));
  const wire::MetaSection& meta = sections.meta;
  MROAM_RETURN_IF_ERROR(CheckBillboards(
      table.payloads[static_cast<uint32_t>(SnapshotSection::kBillboards)],
      meta.num_billboards));
  MROAM_RETURN_IF_ERROR(CheckTrajectories(
      table.payloads[static_cast<uint32_t>(SnapshotSection::kTrajectories)],
      meta.num_trajectories));

  std::vector<std::vector<model::TrajectoryId>> covered(
      sections.covered.num_lists());
  for (uint32_t o = 0; o < sections.covered.num_lists(); ++o) {
    sections.covered.Decode(static_cast<int32_t>(o), &covered[o]);
  }
  std::vector<model::TrajectoryId> dataset_ids;
  sections.dataset_ids.Decode(0, &dataset_ids);

  // BorrowIndexSections has checked every precondition the rebuild
  // CHECKs; encoding both directions of the rebuilt index must reproduce
  // the stored payloads byte for byte. That is the integrity check (it
  // also certifies the covering blob without a separate decode), and it
  // compares in place, building no blob.
  IndexSnapshot snapshot;
  snapshot.index = influence::InfluenceIndex::FromCompactedIncidence(
      std::move(covered), std::move(dataset_ids),
      static_cast<int32_t>(meta.num_trajectories), meta.lambda);
  const influence::InfluenceIndex& index = snapshot.index;
  if (!sections.covered.IsEncodingOf(index.covered(), index.num_covered()) ||
      !sections.covering.IsEncodingOf(index.num_covered(),
                                      CoveringLists(index),
                                      index.num_billboards())) {
    return Status::DataLoss(
        "snapshot compressed sections do not re-encode to the stored "
        "bytes");
  }

  if (table.seen[static_cast<uint32_t>(SnapshotSection::kContractBook)]) {
    MROAM_ASSIGN_OR_RETURN(
        snapshot.book,
        wire::DecodeBook(table.payloads[static_cast<uint32_t>(
            SnapshotSection::kContractBook)]));
  }
  return snapshot;
}

}  // namespace

Result<IndexSnapshot> LoadIndexSnapshot(const std::string& path) {
  MROAM_TRACE_SPAN("io.snapshot_load");
  // Chaos: lets mroam_serve's snapshot-failure exit path be exercised
  // without corrupting a file on disk (MROAM_FAULT="io.snapshot_load=1").
  if (MROAM_FAULT_POINT("io.snapshot_load").fire) {
    return Status::IoError("fault injection: io.snapshot_load armed for " +
                           path);
  }
  common::Stopwatch watch;
  // The mapping lives only for the decode: the index owns its lists.
  MROAM_ASSIGN_OR_RETURN(wire::MappedFile file, wire::MappedFile::Open(path));
  MROAM_ASSIGN_OR_RETURN(IndexSnapshot snapshot,
                         DecodeSnapshot(file.data(), path));

  MROAM_COUNTER_ADD("io.snapshot_loads", 1);
  MROAM_HISTOGRAM_OBSERVE("io.snapshot_load_seconds",
                          watch.ElapsedSeconds());
  MROAM_LOG(Info) << "snapshot (v" << kSnapshotVersion << ") loaded from "
                  << path << " (" << snapshot.index.num_billboards()
                  << " billboards, " << snapshot.index.num_trajectories()
                  << " trajectories, " << snapshot.index.num_covered()
                  << " covered, supply " << snapshot.index.TotalSupply()
                  << ") in " << watch.ElapsedSeconds() << "s";
  return snapshot;
}

}  // namespace mroam::io
