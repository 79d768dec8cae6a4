#include "io/snapshot_io.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
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
      static_cast<uint32_t>(SnapshotSection::kContractBook);
  SectionTableV2 table;
  table.payloads.resize(kMaxSectionId + 1);
  table.seen.assign(kMaxSectionId + 1, false);
  Cursor cur(data, "v2 section chain");
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

/// The compressed postings sections of a plain-list index. The encoder
/// is deterministic, so the same incidence always yields the same bytes:
/// the saver writes these and the loader re-encodes them to verify.
cindex::CompressedPostings EncodeCovered(
    const influence::InfluenceIndex& index) {
  return cindex::CompressedPostings::Build(index.covered(),
                                           index.num_trajectories());
}

cindex::CompressedPostings EncodeCovering(
    const influence::InfluenceIndex& index) {
  return cindex::CompressedPostings::Build(index.covering(),
                                           index.num_billboards());
}

/// v2 framing: 16-byte header, then zero padding placing the payload on a
/// 64-byte file offset, then the payload and its CRC.
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

// --- Section payload decoders ----------------------------------------------

Result<std::vector<model::Billboard>> DecodeBillboards(
    std::string_view payload) {
  Cursor cur(payload, "billboards section");
  MROAM_ASSIGN_OR_RETURN(uint32_t count, cur.GetU32());
  std::vector<model::Billboard> billboards(count);
  for (uint32_t i = 0; i < count; ++i) {
    billboards[i].id = static_cast<model::BillboardId>(i);
    MROAM_ASSIGN_OR_RETURN(billboards[i].location.x, cur.GetF64());
    MROAM_ASSIGN_OR_RETURN(billboards[i].location.y, cur.GetF64());
    MROAM_ASSIGN_OR_RETURN(billboards[i].cost, cur.GetF64());
  }
  return billboards;
}

Result<std::vector<model::Trajectory>> DecodeTrajectories(
    std::string_view payload) {
  Cursor cur(payload, "trajectories section");
  MROAM_ASSIGN_OR_RETURN(uint32_t count, cur.GetU32());
  std::vector<model::Trajectory> trajectories(count);
  for (uint32_t i = 0; i < count; ++i) {
    model::Trajectory& t = trajectories[i];
    t.id = static_cast<model::TrajectoryId>(i);
    MROAM_ASSIGN_OR_RETURN(t.start_time_seconds, cur.GetF64());
    MROAM_ASSIGN_OR_RETURN(t.travel_time_seconds, cur.GetF64());
    MROAM_ASSIGN_OR_RETURN(uint32_t npoints, cur.GetU32());
    t.points.resize(npoints);
    for (uint32_t k = 0; k < npoints; ++k) {
      MROAM_ASSIGN_OR_RETURN(t.points[k].x, cur.GetF64());
      MROAM_ASSIGN_OR_RETURN(t.points[k].y, cur.GetF64());
    }
  }
  return trajectories;
}

// --- Save ------------------------------------------------------------------

Status ValidateForSave(const model::Dataset& dataset,
                       const influence::InfluenceIndex& index) {
  if (!index.has_plain()) {
    return Status::InvalidArgument(
        "refusing to snapshot a compressed index: the writer encodes from "
        "plain lists (boot from the snapshot without mmap to re-save)");
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
  const cindex::CompressedPostings covered = EncodeCovered(index);
  const cindex::CompressedPostings covering = EncodeCovering(index);
  AppendSectionV2(&file, SnapshotSection::kCompressedIncidence,
                  covered.bytes());
  AppendSectionV2(&file, SnapshotSection::kCompressedCovering,
                  covering.bytes());
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

namespace {

/// Decodes the dataset sections, validates them, and cross-checks them
/// against the meta counts.
Result<IndexSnapshot> DecodeDataset(const wire::MetaSection& meta,
                                    std::string_view billboards_payload,
                                    std::string_view trajectories_payload) {
  IndexSnapshot snapshot;
  snapshot.dataset.name = meta.name;
  MROAM_ASSIGN_OR_RETURN(snapshot.dataset.billboards,
                         DecodeBillboards(billboards_payload));
  MROAM_ASSIGN_OR_RETURN(snapshot.dataset.trajectories,
                         DecodeTrajectories(trajectories_payload));
  if (snapshot.dataset.billboards.size() != meta.num_billboards ||
      snapshot.dataset.trajectories.size() != meta.num_trajectories) {
    return Status::DataLoss(
        "snapshot entity counts disagree with meta section");
  }
  std::string problem = model::ValidateDataset(snapshot.dataset);
  if (!problem.empty()) {
    return Status::DataLoss("snapshot dataset invalid: " + problem);
  }
  return snapshot;
}

Result<IndexSnapshot> DecodeSnapshot(std::string_view data,
                                     const std::string& path) {
  MROAM_ASSIGN_OR_RETURN(wire::SectionTableV2 table,
                         wire::WalkSnapshot(data, path));
  for (SnapshotSection required :
       {SnapshotSection::kMeta, SnapshotSection::kBillboards,
        SnapshotSection::kTrajectories,
        SnapshotSection::kCompressedIncidence,
        SnapshotSection::kCompressedCovering}) {
    if (!table.seen[static_cast<uint32_t>(required)]) {
      return Status::DataLoss(
          "snapshot is missing section id " +
          std::to_string(static_cast<uint32_t>(required)));
    }
  }

  MROAM_ASSIGN_OR_RETURN(
      wire::MetaSection meta,
      wire::DecodeMeta(
          table.payloads[static_cast<uint32_t>(SnapshotSection::kMeta)]));

  // The index is rebuilt and verified before the dataset is decoded, so
  // the re-encode temporaries are freed before the dataset's allocations
  // land above them. In the other order, each load of the default serve
  // city took ~600 more page faults and ~15% longer.
  const std::string_view covered_blob = table.payloads[static_cast<uint32_t>(
      SnapshotSection::kCompressedIncidence)];
  const std::string_view covering_blob = table.payloads[static_cast<uint32_t>(
      SnapshotSection::kCompressedCovering)];
  // Borrowing is safe here (`data` outlives the decode), and FromBytes
  // runs the full structural validation either way.
  MROAM_ASSIGN_OR_RETURN(
      cindex::CompressedPostings covered_c,
      cindex::CompressedPostings::FromBytes(covered_blob,
                                            cindex::Ownership::kBorrow));
  if (covered_c.num_lists() != meta.num_billboards ||
      covered_c.universe() != static_cast<int32_t>(meta.num_trajectories)) {
    return Status::DataLoss(
        "snapshot compressed incidence shape disagrees with meta section");
  }
  std::vector<std::vector<model::TrajectoryId>> covered(
      covered_c.num_lists());
  for (uint32_t o = 0; o < covered_c.num_lists(); ++o) {
    covered_c.Decode(static_cast<int32_t>(o), &covered[o]);
  }

  // FromIncidence re-validates the decoded lists and rebuilds the reverse
  // index; re-encoding both directions must reproduce the stored payloads
  // byte for byte. That is the integrity check (it also certifies the
  // covering blob without a separate decode).
  influence::InfluenceIndex index = influence::InfluenceIndex::FromIncidence(
      std::move(covered), static_cast<int32_t>(meta.num_trajectories),
      meta.lambda);
  if (EncodeCovered(index).bytes() != covered_blob ||
      EncodeCovering(index).bytes() != covering_blob) {
    return Status::DataLoss(
        "snapshot compressed sections do not re-encode to the stored "
        "bytes");
  }

  MROAM_ASSIGN_OR_RETURN(
      IndexSnapshot snapshot,
      DecodeDataset(
          meta,
          table.payloads[static_cast<uint32_t>(SnapshotSection::kBillboards)],
          table.payloads[static_cast<uint32_t>(
              SnapshotSection::kTrajectories)]));
  snapshot.index = std::move(index);

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
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("snapshot not found: " + path);
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::IoError("read error on snapshot: " + path);
  }
  MROAM_ASSIGN_OR_RETURN(IndexSnapshot snapshot, DecodeSnapshot(data, path));

  MROAM_COUNTER_ADD("io.snapshot_loads", 1);
  MROAM_HISTOGRAM_OBSERVE("io.snapshot_load_seconds",
                          watch.ElapsedSeconds());
  MROAM_LOG(Info) << "snapshot (v" << kSnapshotVersion << ") loaded from "
                  << path << " (" << snapshot.dataset.billboards.size()
                  << " billboards, " << snapshot.dataset.trajectories.size()
                  << " trajectories, supply "
                  << snapshot.index.TotalSupply() << ") in "
                  << watch.ElapsedSeconds() << "s";
  return snapshot;
}

}  // namespace mroam::io
