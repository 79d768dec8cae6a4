#include "io/snapshot_io.h"

#include "io/snapshot_wire.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/rng.h"
#include "core/solver.h"
#include "gen/city_generators.h"
#include "influence/coverage_counter.h"
#include "io/mmap_snapshot.h"
#include "market/contract_book.h"
#include "test_util.h"

namespace mroam::io {
namespace {

using common::StatusCode;

class SnapshotIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mroam_snapshot_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string PathFor(const std::string& name) {
    return (dir_ / name).string();
  }

  /// A dataset and the index built over it.
  struct City {
    model::Dataset dataset;
    influence::InfluenceIndex index;
  };

  /// A small generated city: nontrivial doubles (times, jittered
  /// coordinates) so bit-exactness is actually exercised.
  City MakeCity() {
    City made;
    gen::NycLikeConfig config;
    config.num_billboards = 80;
    config.num_trajectories = 1500;
    common::Rng rng(7);
    made.dataset = gen::GenerateNycLike(config, &rng);
    made.index = influence::InfluenceIndex::Build(made.dataset, 150.0);
    return made;
  }

  /// A snapshot of the city.
  std::string SavedCityPath() {
    City city = MakeCity();
    std::string path = PathFor("city.snap");
    EXPECT_TRUE(SaveIndexSnapshot(path, city.dataset, city.index).ok());
    return path;
  }

  /// A nontrivial open book: two live contracts and a minted-ahead
  /// ticket counter, as a drained server would export.
  static market::ContractBook MakeBook() {
    market::ContractBook book;
    book.day = 5;
    book.next_ticket = 9;
    market::ContractBookEntry a;
    a.terms = testing::Adv(0, 120, 35.5);
    a.ticket = 3;
    a.expires_on = 8;
    a.billboards = {1, 4, 17};
    market::ContractBookEntry b;
    b.terms = testing::Adv(7, 60, 12.25);
    b.ticket = 8;
    b.expires_on = 6;
    b.billboards = {2};
    book.entries = {a, b};
    return book;
  }

  static void ExpectBooksEqual(const market::ContractBook& got,
                               const market::ContractBook& want) {
    EXPECT_EQ(got.day, want.day);
    EXPECT_EQ(got.next_ticket, want.next_ticket);
    ASSERT_EQ(got.entries.size(), want.entries.size());
    for (size_t i = 0; i < want.entries.size(); ++i) {
      const market::ContractBookEntry& g = got.entries[i];
      const market::ContractBookEntry& w = want.entries[i];
      EXPECT_EQ(g.terms.id, w.terms.id);
      EXPECT_EQ(g.terms.demand, w.terms.demand);
      EXPECT_EQ(std::bit_cast<uint64_t>(g.terms.payment),
                std::bit_cast<uint64_t>(w.terms.payment));
      EXPECT_EQ(g.ticket, w.ticket);
      EXPECT_EQ(g.expires_on, w.expires_on);
      EXPECT_EQ(g.billboards, w.billboards);
    }
  }

  static std::string ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  static void WriteBytes(const std::string& path, const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  static uint32_t ReadU32(const std::string& data, size_t offset) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(
               static_cast<unsigned char>(data[offset + i]))
           << (8 * i);
    }
    return v;
  }

  static uint64_t ReadU64(const std::string& data, size_t offset) {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(
               static_cast<unsigned char>(data[offset + i]))
           << (8 * i);
    }
    return v;
  }

  static void StoreU32(std::string* data, size_t offset, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      (*data)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
    }
  }

  struct SectionSpanV2 {
    size_t payload_offset = 0;
    size_t payload_length = 0;
    size_t crc_offset = 0;
    size_t header_offset = 0;
    size_t pad = 0;
  };

  /// Walks the section framing to locate one section's payload — the
  /// format knowledge the tamper tests rely on lives in the public
  /// constants, not in copied magic numbers. 16-byte headers whose pad
  /// field floats the payload out to the next 64-byte file offset.
  static SectionSpanV2 FindSectionV2(const std::string& data,
                                     SnapshotSection wanted) {
    size_t offset = kSnapshotFileHeaderBytes;
    while (offset + kSnapshotSectionHeaderBytesV2 <= data.size()) {
      uint32_t id = ReadU32(data, offset);
      uint32_t pad = ReadU32(data, offset + 4);
      uint64_t length = ReadU64(data, offset + 8);
      SectionSpanV2 span;
      span.header_offset = offset;
      span.pad = pad;
      span.payload_offset = offset + kSnapshotSectionHeaderBytesV2 + pad;
      span.payload_length = static_cast<size_t>(length);
      span.crc_offset = span.payload_offset + span.payload_length;
      if (id == static_cast<uint32_t>(wanted)) return span;
      if (id == static_cast<uint32_t>(SnapshotSection::kEnd)) break;
      offset = span.crc_offset + 4;
    }
    ADD_FAILURE() << "v2 section " << static_cast<uint32_t>(wanted)
                  << " not found";
    return {};
  }

  /// A hand-framed snapshot holding incidences no Build makes: `covered`
  /// lists compacted ids in [0, universe), `dataset_ids` names them in a
  /// dataset of `num_trajectories`, every billboard sits at the origin and
  /// every trajectory is one point there.
  static std::string AssembleSnapshot(
      const std::vector<std::vector<int32_t>>& covered, int32_t universe,
      const std::vector<int32_t>& dataset_ids, uint32_t num_trajectories) {
    std::vector<std::vector<int32_t>> covering(
        static_cast<size_t>(universe));
    for (size_t o = 0; o < covered.size(); ++o) {
      for (int32_t t : covered[o]) {
        covering[static_cast<size_t>(t)].push_back(static_cast<int32_t>(o));
      }
    }
    std::string file(kSnapshotMagic, sizeof(kSnapshotMagic));
    wire::PutU32(&file, kSnapshotVersion);
    auto append = [&file](SnapshotSection id, std::string_view payload) {
      const size_t header_end = file.size() + kSnapshotSectionHeaderBytesV2;
      const size_t pad =
          (wire::kSectionAlignmentV2 -
           header_end % wire::kSectionAlignmentV2) %
          wire::kSectionAlignmentV2;
      wire::PutU32(&file, static_cast<uint32_t>(id));
      wire::PutU32(&file, static_cast<uint32_t>(pad));
      wire::PutU64(&file, payload.size());
      file.append(pad, '\0');
      file.append(payload);
      wire::PutU32(&file, common::Crc32(payload));
    };
    const auto boards = static_cast<uint32_t>(covered.size());
    std::string meta;
    wire::PutString(&meta, "assembled");
    wire::PutF64(&meta, 1.0);
    wire::PutU32(&meta, boards);
    wire::PutU32(&meta, num_trajectories);
    std::string billboards;
    wire::PutU32(&billboards, boards);
    billboards.append(size_t{boards} * 24, '\0');
    std::string trajectories;
    wire::PutU32(&trajectories, num_trajectories);
    for (uint32_t t = 0; t < num_trajectories; ++t) {
      trajectories.append(16, '\0');  // start and travel time
      wire::PutU32(&trajectories, 1);
      trajectories.append(16, '\0');  // the point
    }
    append(SnapshotSection::kMeta, meta);
    append(SnapshotSection::kBillboards, billboards);
    append(SnapshotSection::kTrajectories, trajectories);
    append(SnapshotSection::kCompressedIncidence,
           cindex::CompressedPostings::Build(covered, universe).bytes());
    append(SnapshotSection::kCompressedCovering,
           cindex::CompressedPostings::Build(covering,
                                             static_cast<int32_t>(boards))
               .bytes());
    append(SnapshotSection::kCoveredIds,
           cindex::CompressedPostings::Build(
               {dataset_ids}, static_cast<int32_t>(num_trajectories))
               .bytes());
    append(SnapshotSection::kEnd, "");
    return file;
  }

  /// Both boots' verdict on `data`, written to a scratch file.
  void ExpectBothBootsFail(const std::string& data, StatusCode code,
                           const std::string& message) {
    const std::string path = PathFor("assembled.snap");
    WriteBytes(path, data);
    auto loaded = LoadIndexSnapshot(path);
    EXPECT_EQ(loaded.status().code(), code) << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find(message), std::string::npos)
        << loaded.status().ToString();
    auto mapped = MappedSnapshot::Map(path);
    EXPECT_EQ(mapped.status().code(), code) << mapped.status().ToString();
    EXPECT_NE(mapped.status().message().find(message), std::string::npos)
        << mapped.status().ToString();
  }

  std::filesystem::path dir_;
};

TEST_F(SnapshotIoTest, RoundTripIsBitExact) {
  City city = MakeCity();
  // Some trajectories meet no board, so the round trip crosses a real
  // compaction of the universe.
  ASSERT_LT(city.index.num_covered(), city.index.num_trajectories());
  std::string path = PathFor("roundtrip.snap");
  ASSERT_TRUE(SaveIndexSnapshot(path, city.dataset, city.index).ok());

  auto loaded = LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->index.num_billboards(), city.index.num_billboards());
  EXPECT_EQ(loaded->index.num_trajectories(),
            city.index.num_trajectories());
  EXPECT_EQ(loaded->index.num_covered(), city.index.num_covered());
  EXPECT_EQ(std::bit_cast<uint64_t>(loaded->index.lambda()),
            std::bit_cast<uint64_t>(city.index.lambda()));
  EXPECT_EQ(loaded->index.TotalSupply(), city.index.TotalSupply());
  EXPECT_EQ(loaded->index.covered(), city.index.covered());
  for (int32_t t = 0; t < city.index.num_covered(); ++t) {
    EXPECT_EQ(testing::CoveringVector(loaded->index, t),
              testing::CoveringVector(city.index, t))
        << "trajectory " << t;
  }
  EXPECT_EQ(loaded->index.dataset_ids(), city.index.dataset_ids());
}

TEST_F(SnapshotIoTest, DatasetSectionsHoldTheDatasetBitForBit) {
  // No boot decodes the dataset, so read its sections back here: every
  // double is stored as its IEEE-754 bit pattern.
  City city = MakeCity();
  std::string path = PathFor("dataset.snap");
  ASSERT_TRUE(SaveIndexSnapshot(path, city.dataset, city.index).ok());
  const std::string data = ReadBytes(path);
  auto bits = [](wire::Cursor* cur) {
    auto v = cur->GetU64();
    EXPECT_TRUE(v.ok());
    return v.ok() ? *v : 0;
  };

  SectionSpanV2 span = FindSectionV2(data, SnapshotSection::kBillboards);
  wire::Cursor billboards(
      std::string_view(data).substr(span.payload_offset, span.payload_length),
      "billboards");
  ASSERT_EQ(*billboards.GetU32(), city.dataset.billboards.size());
  for (const model::Billboard& b : city.dataset.billboards) {
    EXPECT_EQ(bits(&billboards), std::bit_cast<uint64_t>(b.location.x));
    EXPECT_EQ(bits(&billboards), std::bit_cast<uint64_t>(b.location.y));
    EXPECT_EQ(bits(&billboards), std::bit_cast<uint64_t>(b.cost));
  }
  EXPECT_EQ(billboards.remaining(), 0u);

  span = FindSectionV2(data, SnapshotSection::kTrajectories);
  wire::Cursor trajectories(
      std::string_view(data).substr(span.payload_offset, span.payload_length),
      "trajectories");
  ASSERT_EQ(*trajectories.GetU32(), city.dataset.trajectories.size());
  for (const model::Trajectory& t : city.dataset.trajectories) {
    EXPECT_EQ(bits(&trajectories),
              std::bit_cast<uint64_t>(t.start_time_seconds));
    EXPECT_EQ(bits(&trajectories),
              std::bit_cast<uint64_t>(t.travel_time_seconds));
    ASSERT_EQ(*trajectories.GetU32(), t.points.size());
    for (const geo::Point& p : t.points) {
      EXPECT_EQ(bits(&trajectories), std::bit_cast<uint64_t>(p.x));
      EXPECT_EQ(bits(&trajectories), std::bit_cast<uint64_t>(p.y));
    }
  }
  EXPECT_EQ(trajectories.remaining(), 0u);
}

TEST_F(SnapshotIoTest, LoadedIndexReproducesSolverOutputExactly) {
  City city = MakeCity();
  std::string path = PathFor("solver.snap");
  ASSERT_TRUE(SaveIndexSnapshot(path, city.dataset, city.index).ok());
  auto loaded = LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  std::vector<market::Advertiser> advertisers;
  for (int i = 0; i < 12; ++i) {
    advertisers.push_back(
        testing::Adv(i, 40 + 17 * i, 5.0 + 1.5 * static_cast<double>(i)));
  }
  core::SolverConfig config;
  config.method = core::Method::kBls;
  config.local_search.restarts = 2;
  config.seed = 99;

  core::SolveResult original = Solve(city.index, advertisers, config);
  core::SolveResult replayed = Solve(loaded->index, advertisers, config);
  EXPECT_EQ(replayed.sets, original.sets);
  EXPECT_DOUBLE_EQ(replayed.breakdown.total, original.breakdown.total);
}

TEST_F(SnapshotIoTest, SaveRefusesEmptyDataset) {
  model::Dataset empty;
  influence::InfluenceIndex index;
  common::Status status =
      SaveIndexSnapshot(PathFor("empty.snap"), empty, index);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotIoTest, SaveRefusesMismatchedIndex) {
  City city = MakeCity();
  model::Dataset other = testing::DatasetFromIncidence({{0}, {1}}, 2);
  common::Status status =
      SaveIndexSnapshot(PathFor("mismatch.snap"), other, city.index);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotIoTest, SaveCreatesParentDirectories) {
  City city = MakeCity();
  std::string path = PathFor("deep/nested/dirs/city.snap");
  ASSERT_TRUE(SaveIndexSnapshot(path, city.dataset, city.index).ok());
  EXPECT_TRUE(LoadIndexSnapshot(path).ok());
}

TEST_F(SnapshotIoTest, LoadMissingFileIsNotFound) {
  auto loaded = LoadIndexSnapshot(PathFor("nope.snap"));
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotIoTest, LoadRejectsForeignFile) {
  std::string path = PathFor("foreign.snap");
  WriteBytes(path, "id,x,y\n0,1,2\n this is clearly a CSV not a snapshot");
  auto loaded = LoadIndexSnapshot(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("not a mroam index snapshot"),
            std::string::npos);
}

TEST_F(SnapshotIoTest, LoadRejectsUnsupportedVersion) {
  // The version lives right after the magic, uncovered by any CRC. The
  // retired version 1 is as unsupported as a future one.
  for (uint32_t version : {1u, kSnapshotVersion + 1}) {
    std::string path = SavedCityPath();
    std::string data = ReadBytes(path);
    StoreU32(&data, sizeof(kSnapshotMagic), version);
    WriteBytes(path, data);
    auto loaded = LoadIndexSnapshot(path);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find("unsupported snapshot version " +
                                             std::to_string(version)),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(SnapshotIoTest, LoadRejectsTruncationAnywhere) {
  std::string path = SavedCityPath();
  const std::string data = ReadBytes(path);
  // Cut the file at a spread of prefix lengths: inside the file header,
  // inside a section header, mid-payload, and just before the end
  // marker. Every cut must surface as a typed error, never a crash.
  const size_t cuts[] = {0,
                         4,
                         kSnapshotFileHeaderBytes - 1,
                         kSnapshotFileHeaderBytes + 5,
                         data.size() / 3,
                         data.size() / 2,
                         data.size() - 5,
                         data.size() - 1};
  for (size_t cut : cuts) {
    WriteBytes(path, data.substr(0, cut));
    auto loaded = LoadIndexSnapshot(path);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut << " loaded fine";
    EXPECT_TRUE(loaded.status().code() == StatusCode::kDataLoss ||
                loaded.status().code() == StatusCode::kInvalidArgument)
        << "cut at " << cut << ": " << loaded.status().ToString();
  }
}

TEST_F(SnapshotIoTest, LoadRejectsFlippedPayloadByte) {
  std::string path = SavedCityPath();
  std::string data = ReadBytes(path);
  SectionSpanV2 span = FindSectionV2(data, SnapshotSection::kTrajectories);
  ASSERT_GT(span.payload_length, 10u);
  data[span.payload_offset + span.payload_length / 2] ^= 0x40;
  WriteBytes(path, data);
  auto loaded = LoadIndexSnapshot(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("CRC mismatch"),
            std::string::npos);
}

TEST_F(SnapshotIoTest, SnapshotLoadFaultPointFailsTyped) {
  std::string path = SavedCityPath();
  // The armed io.snapshot_load point turns a perfectly good snapshot
  // into a typed load failure — the hook mroam_serve's distinct exit
  // status (3) and the chaos suite lean on.
  auto& injector = common::FaultInjector::Global();
  ASSERT_TRUE(injector.ArmFromSpec("seed=1;io.snapshot_load=1.0").ok());
  auto faulted = LoadIndexSnapshot(path);
  injector.Disarm();
  EXPECT_EQ(faulted.status().code(), StatusCode::kIoError);
  EXPECT_NE(faulted.status().message().find("fault injection"),
            std::string::npos)
      << faulted.status().ToString();
  // Disarmed again, the same file loads fine.
  EXPECT_TRUE(LoadIndexSnapshot(path).ok());
}

// --- format v2: alignment, book persistence, tamper rejection ------------

TEST_F(SnapshotIoTest, ReservedSectionIdsAreUnknown) {
  // Ids 4 and 5 held v1's flat lists. Relabelling the (optional) book
  // section as either must fail the walk on both loaders, with the frame
  // and CRC otherwise pristine.
  const std::string pristine = ReadBytes(SavedCityPath());
  SectionSpanV2 span =
      FindSectionV2(pristine, SnapshotSection::kContractBook);
  for (uint32_t reserved : {4u, 5u}) {
    std::string data = pristine;
    StoreU32(&data, span.header_offset, reserved);
    std::string path = PathFor("reserved.snap");
    WriteBytes(path, data);
    auto loaded = LoadIndexSnapshot(path);
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(loaded.status().message().find("unknown snapshot section id " +
                                             std::to_string(reserved)),
              std::string::npos)
        << loaded.status().ToString();
    EXPECT_EQ(MappedSnapshot::Map(path).status().code(),
              StatusCode::kDataLoss);
  }
}

TEST_F(SnapshotIoTest, SaveRefusesCompressedIndex) {
  // The writer encodes from plain lists; a FromCompressed index (the
  // --mmap serving shape) has none.
  City city = MakeCity();
  common::Status status =
      SaveIndexSnapshot(PathFor("compressed.snap"), city.dataset,
                        testing::CompressedTwin(city.index));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(PathFor("compressed.snap")));
}

TEST_F(SnapshotIoTest, ResaveOfLoadedSnapshotIsByteIdentical) {
  // Neither boot keeps the dataset, yet re-saving either boot with the
  // book it booted reproduces the very bytes it was read from.
  City city = MakeCity();
  std::string first = PathFor("first.snap");
  ASSERT_TRUE(
      SaveIndexSnapshot(first, city.dataset, city.index, MakeBook()).ok());
  auto loaded = LoadIndexSnapshot(first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::string second = PathFor("second.snap");
  ASSERT_TRUE(
      ResaveIndexSnapshot(first, second, loaded->index, loaded->book).ok());
  EXPECT_EQ(ReadBytes(second), ReadBytes(first));

  auto mapped = MappedSnapshot::Map(first);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  std::string third = PathFor("third.snap");
  ASSERT_TRUE(
      ResaveIndexSnapshot(first, third, mapped->index(), mapped->book())
          .ok());
  EXPECT_EQ(ReadBytes(third), ReadBytes(first));
}

TEST_F(SnapshotIoTest, ResaveInPlaceCopiesEverySectionButTheBook) {
  City city = MakeCity();
  std::string path = PathFor("inplace.snap");
  ASSERT_TRUE(SaveIndexSnapshot(path, city.dataset, city.index).ok());
  const std::string before = ReadBytes(path);
  auto mapped = MappedSnapshot::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const market::ContractBook book = MakeBook();
  ASSERT_TRUE(ResaveIndexSnapshot(path, path, mapped->index(), book).ok());

  const std::string after = ReadBytes(path);
  for (SnapshotSection section :
       {SnapshotSection::kMeta, SnapshotSection::kBillboards,
        SnapshotSection::kTrajectories, SnapshotSection::kCompressedIncidence,
        SnapshotSection::kCompressedCovering, SnapshotSection::kCoveredIds}) {
    const SectionSpanV2 old_span = FindSectionV2(before, section);
    const SectionSpanV2 new_span = FindSectionV2(after, section);
    EXPECT_EQ(new_span.payload_offset, old_span.payload_offset);
    EXPECT_EQ(after.substr(new_span.header_offset,
                           new_span.crc_offset + 4 - new_span.header_offset),
              before.substr(old_span.header_offset,
                            old_span.crc_offset + 4 - old_span.header_offset))
        << "section " << static_cast<uint32_t>(section);
  }
  auto loaded = LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBooksEqual(loaded->book, book);
  EXPECT_EQ(loaded->index.covered(), city.index.covered());
  auto remapped = MappedSnapshot::Map(path);
  ASSERT_TRUE(remapped.ok()) << remapped.status().ToString();
  ExpectBooksEqual(remapped->book(), book);
}

TEST_F(SnapshotIoTest, ResaveRefusesASourceThatDoesNotHoldTheIndex) {
  City city = MakeCity();
  std::string path = PathFor("source.snap");
  ASSERT_TRUE(SaveIndexSnapshot(path, city.dataset, city.index).ok());
  const influence::InfluenceIndex other =
      influence::InfluenceIndex::Build(city.dataset, 90.0);
  common::Status status = ResaveIndexSnapshot(path, PathFor("copy.snap"),
                                              other, MakeBook());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_FALSE(std::filesystem::exists(PathFor("copy.snap")));
  EXPECT_EQ(ResaveIndexSnapshot(PathFor("absent.snap"), PathFor("copy.snap"),
                                city.index, MakeBook())
                .code(),
            StatusCode::kNotFound);
}

TEST_F(SnapshotIoTest, V2RoundTripRestoresContractBook) {
  City city = MakeCity();
  std::string path = PathFor("book.snap");
  market::ContractBook book = MakeBook();
  ASSERT_TRUE(SaveIndexSnapshot(path, city.dataset, city.index, book).ok());
  auto loaded = LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBooksEqual(loaded->book, book);
  // The restored index still matches, book or no book.
  EXPECT_EQ(loaded->index.covered(), city.index.covered());
}

TEST_F(SnapshotIoTest, V2PayloadsAre64ByteAligned) {
  std::string path = SavedCityPath();
  const std::string data = ReadBytes(path);
  ASSERT_EQ(ReadU32(data, sizeof(kSnapshotMagic)), kSnapshotVersion);
  for (SnapshotSection section :
       {SnapshotSection::kMeta, SnapshotSection::kBillboards,
        SnapshotSection::kTrajectories, SnapshotSection::kCompressedIncidence,
        SnapshotSection::kCompressedCovering, SnapshotSection::kCoveredIds,
        SnapshotSection::kContractBook}) {
    SectionSpanV2 span = FindSectionV2(data, section);
    EXPECT_EQ(span.payload_offset % wire::kSectionAlignmentV2, 0u)
        << "section " << static_cast<uint32_t>(section);
  }
}

TEST_F(SnapshotIoTest, V2RejectsFlippedCompressedPayloadByte) {
  std::string path = SavedCityPath();
  std::string data = ReadBytes(path);
  SectionSpanV2 span =
      FindSectionV2(data, SnapshotSection::kCompressedIncidence);
  ASSERT_GT(span.payload_length, 10u);
  data[span.payload_offset + span.payload_length / 2] ^= 0x40;
  WriteBytes(path, data);
  auto loaded = LoadIndexSnapshot(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("CRC mismatch"),
            std::string::npos);
}

TEST_F(SnapshotIoTest, V2RejectsNonzeroPadByte) {
  std::string path = SavedCityPath();
  std::string data = ReadBytes(path);
  SectionSpanV2 span = FindSectionV2(data, SnapshotSection::kMeta);
  ASSERT_GT(span.pad, 0u);  // the first header always needs padding
  // Pad bytes sit between header and payload and are covered by no CRC;
  // the walker itself must insist they are zero.
  data[span.payload_offset - 1] = 0x5A;
  WriteBytes(path, data);
  auto loaded = LoadIndexSnapshot(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotIoTest, V2RejectsResignedPostingsForgery) {
  // Forge a postings blob with a pristine CRC: the framing layer now
  // passes, and the blob's structural validation or the loader's
  // re-encode byte comparison must catch the forgery rather than serve a
  // corrupt market. A forged covering blob decodes nowhere, so only the
  // comparison against the forward lists can catch it.
  const std::string pristine = ReadBytes(SavedCityPath());
  for (SnapshotSection section : {SnapshotSection::kCompressedIncidence,
                                  SnapshotSection::kCompressedCovering}) {
    std::string data = pristine;
    SectionSpanV2 span = FindSectionV2(data, section);
    ASSERT_GT(span.payload_length, 50u);
    data[span.payload_offset + span.payload_length - 1] ^= 0x01;
    std::string_view payload(data.data() + span.payload_offset,
                             span.payload_length);
    StoreU32(&data, span.crc_offset, common::Crc32(payload));
    std::string path = PathFor("forged.snap");
    WriteBytes(path, data);
    auto loaded = LoadIndexSnapshot(path);
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "section " << static_cast<uint32_t>(section) << ": "
        << loaded.status().ToString();
  }
}

// --- atomic save ---------------------------------------------------------

TEST_F(SnapshotIoTest, FaultedSaveLeavesExistingSnapshotIntact) {
  City city = MakeCity();
  std::string path = PathFor("atomic.snap");
  ASSERT_TRUE(SaveIndexSnapshot(path, city.dataset, city.index).ok());
  const std::string before = ReadBytes(path);

  auto& injector = common::FaultInjector::Global();
  ASSERT_TRUE(injector.ArmFromSpec("seed=1;io.snapshot_write=1.0").ok());
  common::Status faulted =
      SaveIndexSnapshot(path, city.dataset, city.index, MakeBook());
  injector.Disarm();
  EXPECT_EQ(faulted.code(), StatusCode::kIoError);
  EXPECT_NE(faulted.message().find("fault injection"), std::string::npos);

  // The crash-simulated write went to the temp file only: the published
  // snapshot is byte-identical and still loads.
  EXPECT_EQ(ReadBytes(path), before);
  EXPECT_TRUE(LoadIndexSnapshot(path).ok());
  // The stray temp file (what a real crash would leave) is present.
  EXPECT_TRUE(std::filesystem::exists(
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()))));
}

TEST_F(SnapshotIoTest, FaultedSaveToFreshPathPublishesNothing) {
  City city = MakeCity();
  std::string path = PathFor("never_published.snap");
  auto& injector = common::FaultInjector::Global();
  ASSERT_TRUE(injector.ArmFromSpec("seed=1;io.snapshot_write=1.0").ok());
  common::Status faulted =
      SaveIndexSnapshot(path, city.dataset, city.index);
  injector.Disarm();
  EXPECT_EQ(faulted.code(), StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(SnapshotIoTest, FaultedResaveLeavesExistingSnapshotIntact) {
  // The re-save goes through the same atomic writer and fault point.
  std::string path = SavedCityPath();
  const std::string before = ReadBytes(path);
  auto loaded = LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto& injector = common::FaultInjector::Global();
  ASSERT_TRUE(injector.ArmFromSpec("seed=1;io.snapshot_write=1.0").ok());
  common::Status faulted =
      ResaveIndexSnapshot(path, path, loaded->index, MakeBook());
  injector.Disarm();
  EXPECT_EQ(faulted.code(), StatusCode::kIoError);
  EXPECT_NE(faulted.message().find("fault injection"), std::string::npos);
  EXPECT_EQ(ReadBytes(path), before);
}

// --- zero-copy mapping ---------------------------------------------------

TEST_F(SnapshotIoTest, MappedSnapshotServesTheSameIndexZeroCopy) {
  City city = MakeCity();
  std::string path = PathFor("mapped.snap");
  market::ContractBook book = MakeBook();
  ASSERT_TRUE(SaveIndexSnapshot(path, city.dataset, city.index, book).ok());

  auto mapped = MappedSnapshot::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->file_bytes(), std::filesystem::file_size(path));
  ExpectBooksEqual(mapped->book(), book);

  const influence::InfluenceIndex& index = mapped->index();
  EXPECT_FALSE(index.has_plain());
  EXPECT_EQ(index.num_billboards(), city.index.num_billboards());
  EXPECT_EQ(index.num_trajectories(), city.index.num_trajectories());
  EXPECT_EQ(index.num_covered(), city.index.num_covered());
  std::vector<model::TrajectoryId> ids;
  index.ForEachDatasetId([&ids](model::TrajectoryId t) { ids.push_back(t); });
  EXPECT_EQ(ids, city.index.dataset_ids());
  EXPECT_EQ(index.TotalSupply(), city.index.TotalSupply());
  EXPECT_DOUBLE_EQ(index.lambda(), city.index.lambda());
  for (int32_t o = 0; o < index.num_billboards(); ++o) {
    std::vector<model::TrajectoryId> walked;
    index.ForEachCovered(o, [&walked](model::TrajectoryId t) {
      walked.push_back(t);
    });
    ASSERT_EQ(walked, city.index.CoveredBy(o)) << "billboard " << o;
  }

  // A solver run over the mapped index (compressed kernels) is
  // bit-identical to one over the built index (plain lists).
  std::vector<market::Advertiser> advertisers;
  for (int i = 0; i < 8; ++i) {
    advertisers.push_back(
        testing::Adv(i, 30 + 11 * i, 4.0 + static_cast<double>(i)));
  }
  core::SolverConfig config;
  config.method = core::Method::kBls;
  config.local_search.restarts = 2;
  config.seed = 21;
  core::SolveResult built = Solve(city.index, advertisers, config);
  core::SolveResult served = Solve(index, advertisers, config);
  EXPECT_EQ(served.sets, built.sets);
  EXPECT_EQ(served.influences, built.influences);
  EXPECT_DOUBLE_EQ(served.breakdown.total, built.breakdown.total);
}

TEST_F(SnapshotIoTest, MappedSnapshotSurvivesMoves) {
  City city = MakeCity();
  std::string path = PathFor("moved.snap");
  ASSERT_TRUE(SaveIndexSnapshot(path, city.dataset, city.index).ok());
  auto mapped = MappedSnapshot::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const int64_t supply = mapped->index().TotalSupply();

  MappedSnapshot moved = std::move(*mapped);
  MappedSnapshot assigned = std::move(moved);
  EXPECT_EQ(assigned.index().TotalSupply(), supply);
  EXPECT_EQ(assigned.index().InfluenceOf(0), city.index.InfluenceOf(0));
}

/// Resident bytes of this process's mappings of the file at `path` (a
/// canonical path), summed over their Rss lines in /proc/self/smaps.
size_t MappedResidentBytes(const std::string& path) {
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool ours = false;
  size_t kib = 0;
  while (std::getline(smaps, line)) {
    const std::string key = line.substr(0, line.find(' '));
    if (key.empty() || key.back() != ':') {
      // A mapping's header line: address range, ..., then the file name.
      ours = line.size() >= path.size() &&
             line.compare(line.size() - path.size(), path.size(), path) == 0;
    } else if (ours && key == "Rss:") {
      kib += std::stoul(line.substr(key.size()));
    }
  }
  return kib * 1024;
}

TEST_F(SnapshotIoTest, MappedSnapshotKeepsOnlyTheBlobsResident) {
  City city = MakeCity();
  const std::string path = PathFor("resident.snap");
  ASSERT_TRUE(SaveIndexSnapshot(path, city.dataset, city.index, MakeBook())
                  .ok());
  const std::string data = ReadBytes(path);
  const auto page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  ASSERT_GE(FindSectionV2(data, SnapshotSection::kTrajectories)
                .payload_length,
            8 * page);
  // The writer puts the three blobs one after another; the pages they
  // touch are all a mapped boot may keep.
  const SectionSpanV2 first =
      FindSectionV2(data, SnapshotSection::kCompressedIncidence);
  const SectionSpanV2 last =
      FindSectionV2(data, SnapshotSection::kCoveredIds);
  ASSERT_LT(first.payload_offset, last.payload_offset);
  const size_t served = (last.crc_offset + page - 1) / page * page -
                        first.payload_offset / page * page;
  ASSERT_LT(served + 8 * page, data.size());

  auto mapped = MappedSnapshot::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const std::string mapped_path = std::filesystem::canonical(path).string();
  EXPECT_GT(MappedResidentBytes(mapped_path), 0u);
  EXPECT_LE(MappedResidentBytes(mapped_path), served);

  // Serving reads the blobs only.
  const influence::InfluenceIndex& index = mapped->index();
  int64_t walked = 0;
  for (int32_t o = 0; o < index.num_billboards(); ++o) {
    index.ForEachCovered(o, [&walked](model::TrajectoryId) { ++walked; });
  }
  for (int32_t t = 0; t < index.num_covered(); ++t) {
    index.ForEachCovering(t, [&walked](model::BillboardId) { ++walked; });
  }
  EXPECT_EQ(walked, 2 * city.index.TotalSupply());
  EXPECT_LE(MappedResidentBytes(mapped_path), served);

  // The dropped pages are still the file's: a re-save copies them back.
  const std::string copy = PathFor("resident_copy.snap");
  ASSERT_TRUE(ResaveIndexSnapshot(path, copy, index, mapped->book()).ok());
  EXPECT_EQ(ReadBytes(copy), data);
  EXPECT_LE(MappedResidentBytes(mapped_path), served);
}

TEST_F(SnapshotIoTest, MapRejectsV1Snapshot) {
  std::string path = SavedCityPath();
  std::string data = ReadBytes(path);
  StoreU32(&data, sizeof(kSnapshotMagic), 1);
  WriteBytes(path, data);
  auto mapped = MappedSnapshot::Map(path);
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mapped.status().message().find("unsupported snapshot version 1"),
            std::string::npos)
      << mapped.status().ToString();
}

TEST_F(SnapshotIoTest, MapMissingFileIsNotFound) {
  auto mapped = MappedSnapshot::Map(PathFor("absent.snap"));
  EXPECT_EQ(mapped.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotIoTest, MapRejectsTruncation) {
  std::string path = SavedCityPath();
  const std::string data = ReadBytes(path);
  for (size_t cut : {size_t{0}, size_t{6}, data.size() / 2,
                     data.size() - 3}) {
    WriteBytes(path, data.substr(0, cut));
    auto mapped = MappedSnapshot::Map(path);
    ASSERT_FALSE(mapped.ok()) << "cut at " << cut << " mapped fine";
  }
}

TEST_F(SnapshotIoTest, MapFaultPointFailsTyped) {
  std::string path = SavedCityPath();
  auto& injector = common::FaultInjector::Global();
  ASSERT_TRUE(injector.ArmFromSpec("seed=1;io.mmap_map=1.0").ok());
  auto faulted = MappedSnapshot::Map(path);
  injector.Disarm();
  EXPECT_EQ(faulted.status().code(), StatusCode::kIoError);
  EXPECT_NE(faulted.status().message().find("fault injection"),
            std::string::npos);
  EXPECT_TRUE(MappedSnapshot::Map(path).ok());
}

TEST_F(SnapshotIoTest, DirectoryIsATypedErrorOnBothBoots) {
  // A directory opens fine but is no snapshot: both boots refuse it with
  // a status instead of reading it.
  auto loaded = LoadIndexSnapshot(dir_.string());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("not a regular file"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_EQ(MappedSnapshot::Map(dir_.string()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SnapshotIoTest, CoveringCountsMustFitOneByte) {
  // 255 boards covering one trajectory is the most a one-byte count
  // holds: both boots serve it, and a counter holding every board counts
  // 255. One board more is outside input that both boots refuse.
  std::vector<std::vector<int32_t>> covered(influence::kMaxCoveringBoards,
                                            {0});
  const std::string path = PathFor("full.snap");
  WriteBytes(path, AssembleSnapshot(covered, 1, {3}, 5));
  auto loaded = LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto mapped = MappedSnapshot::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const influence::InfluenceIndex* booted[] = {&loaded->index,
                                               &mapped->index()};
  for (const influence::InfluenceIndex* index : booted) {
    EXPECT_EQ(index->num_covered(), 1);
    EXPECT_EQ(index->num_trajectories(), 5);
    influence::CoverageCounter counter(index, influence::kMaxCoveringBoards);
    for (int32_t o = 0; o < index->num_billboards(); ++o) counter.Add(o);
    EXPECT_EQ(counter.CountOf(0), influence::kMaxCoveringBoards);
    EXPECT_EQ(counter.influence(), 1);
  }

  covered.push_back({0});
  ExpectBothBootsFail(AssembleSnapshot(covered, 1, {3}, 5),
                      StatusCode::kDataLoss, "covered by more than 255");
}

TEST_F(SnapshotIoTest, CoveredIdsMustNameTheCompactedUniverse) {
  // One id for a universe of two trajectories.
  ExpectBothBootsFail(AssembleSnapshot({{0, 1}}, 2, {4}, 6),
                      StatusCode::kDataLoss, "covered-id list");
  // A universe trajectory no board covers has no place in it.
  ExpectBothBootsFail(AssembleSnapshot({{0}}, 2, {1, 4}, 6),
                      StatusCode::kDataLoss, "covered by no board");
  // The well-formed file loads on both boots and maps ids back.
  const std::string path = PathFor("ids.snap");
  WriteBytes(path, AssembleSnapshot({{0, 1}, {1}}, 2, {1, 4}, 6));
  auto loaded = LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->index.dataset_ids(),
            (std::vector<model::TrajectoryId>{1, 4}));
  auto mapped = MappedSnapshot::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  std::vector<model::TrajectoryId> ids;
  mapped->index().ForEachDatasetId(
      [&ids](model::TrajectoryId t) { ids.push_back(t); });
  EXPECT_EQ(ids, (std::vector<model::TrajectoryId>{1, 4}));
}

}  // namespace
}  // namespace mroam::io
