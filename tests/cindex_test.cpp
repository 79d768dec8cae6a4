// Tests of the block-compressed posting-list codec (src/cindex): encode /
// decode round trips across density regimes, wire-level validation of
// corrupted blobs, ownership semantics, and the bit-identity of the
// coverage counter — and of whole solver runs — on FromCompressed indexes
// against their plain-list originals.
#include "cindex/postings.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/solver.h"
#include "gen/city_generators.h"
#include "influence/coverage_counter.h"
#include "influence/influence_index.h"
#include "test_util.h"

namespace mroam::cindex {
namespace {

using Lists = std::vector<std::vector<int32_t>>;
using mroam::testing::CompressedTwin;

/// Random sorted duplicate-free lists mixing density regimes: per list a
/// random density in [0, 0.9] over a random window of the universe, so
/// some blocks encode sparse (varints) and some dense (bitmaps).
Lists RandomLists(common::Rng* rng, int32_t num_lists, int32_t universe) {
  Lists lists(num_lists);
  for (auto& list : lists) {
    if (rng->Bernoulli(0.1)) continue;  // keep some lists empty
    const double density = rng->UniformDouble(0.0, 0.9);
    const int32_t lo = static_cast<int32_t>(rng->UniformU64(universe));
    const int32_t hi =
        lo + static_cast<int32_t>(rng->UniformU64(universe - lo)) + 1;
    for (int32_t v = lo; v < hi; ++v) {
      if (rng->Bernoulli(density)) list.push_back(v);
    }
  }
  return lists;
}

Lists DecodeAll(const CompressedPostings& postings) {
  Lists out(postings.num_lists());
  for (uint32_t i = 0; i < postings.num_lists(); ++i) {
    postings.Decode(static_cast<int32_t>(i), &out[i]);
  }
  return out;
}

TEST(CompressedPostingsTest, RoundTripsHandcraftedRegimes) {
  // Universe straddles a block boundary and is not a multiple of the
  // span; lists cover the edge values, an empty list, a singleton, a
  // fully dense block, and values in the final partial block.
  const int32_t span = static_cast<int32_t>(kBlockSpan);
  const int32_t universe = 2 * span + 37;
  Lists lists;
  lists.push_back({});                        // empty list
  lists.push_back({0});                       // first representable value
  lists.push_back({universe - 1});            // last representable value
  lists.push_back({0, 511, 512, 1023, 1024, universe - 1});  // boundaries
  std::vector<int32_t> dense;
  for (int32_t v = span; v < 2 * span; ++v) dense.push_back(v);
  lists.push_back(dense);                     // one fully dense block
  std::vector<int32_t> tail;
  for (int32_t v = 2 * span; v < universe; v += 2) tail.push_back(v);
  lists.push_back(tail);                      // the partial final block

  CompressedPostings postings = CompressedPostings::Build(lists, universe);
  ASSERT_EQ(postings.Validate(), common::Status());
  EXPECT_EQ(postings.num_lists(), lists.size());
  EXPECT_EQ(postings.universe(), universe);

  uint64_t total = 0;
  for (size_t i = 0; i < lists.size(); ++i) {
    EXPECT_EQ(postings.ListSize(static_cast<int32_t>(i)), lists[i].size());
    total += lists[i].size();
  }
  EXPECT_EQ(postings.total_count(), total);
  EXPECT_EQ(DecodeAll(postings), lists);
}

TEST(CompressedPostingsTest, RoundTripsRandomizedLists) {
  common::Rng rng(7);
  for (int32_t universe : {1, 63, 512, 513, 4096, 10000}) {
    Lists lists = RandomLists(&rng, 40, universe);
    CompressedPostings postings = CompressedPostings::Build(lists, universe);
    ASSERT_EQ(postings.Validate(), common::Status()) << "universe " << universe;
    EXPECT_EQ(DecodeAll(postings), lists) << "universe " << universe;

    // ForEach agrees with Decode and yields ascending order.
    for (uint32_t i = 0; i < postings.num_lists(); ++i) {
      std::vector<int32_t> walked;
      postings.ForEach(static_cast<int32_t>(i),
                       [&walked](int32_t v) { walked.push_back(v); });
      EXPECT_EQ(walked, lists[i]);
    }
  }
}

TEST(CompressedPostingsTest, ReencodeIsBitIdentical) {
  // The dense/sparse choice is deterministic, so re-building from the
  // decoded lists reproduces the blob byte for byte — the property the v2
  // snapshot loader uses as its integrity check.
  common::Rng rng(11);
  Lists lists = RandomLists(&rng, 60, 3000);
  CompressedPostings a = CompressedPostings::Build(lists, 3000);
  CompressedPostings b = CompressedPostings::Build(DecodeAll(a), 3000);
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(CompressedPostingsTest, FromBytesCopyAndBorrowServeTheSameData) {
  common::Rng rng(13);
  Lists lists = RandomLists(&rng, 25, 2000);
  CompressedPostings built = CompressedPostings::Build(lists, 2000);
  std::string wire(built.bytes());

  auto copied = CompressedPostings::FromBytes(wire, Ownership::kCopy);
  ASSERT_TRUE(copied.ok()) << copied.status();
  auto borrowed = CompressedPostings::FromBytes(wire, Ownership::kBorrow);
  ASSERT_TRUE(borrowed.ok()) << borrowed.status();

  EXPECT_EQ(DecodeAll(*copied), lists);
  EXPECT_EQ(DecodeAll(*borrowed), lists);
  // The borrow really is zero-copy: it points into the caller's buffer.
  EXPECT_EQ(borrowed->bytes().data(), wire.data());
  EXPECT_NE(copied->bytes().data(), wire.data());

  // An owning copy stays valid after the wire buffer is destroyed.
  CompressedPostings kept = *copied;
  wire.assign(wire.size(), '\0');
  EXPECT_EQ(DecodeAll(kept), lists);
}

TEST(CompressedPostingsTest, CopyAndMoveSemantics) {
  common::Rng rng(17);
  Lists lists = RandomLists(&rng, 10, 1500);
  CompressedPostings original = CompressedPostings::Build(lists, 1500);

  CompressedPostings copy = original;  // owning copy: self-contained
  EXPECT_NE(copy.bytes().data(), original.bytes().data());
  EXPECT_EQ(DecodeAll(copy), lists);

  CompressedPostings moved = std::move(original);
  EXPECT_EQ(DecodeAll(moved), lists);
  EXPECT_TRUE(original.empty());  // NOLINT(bugprone-use-after-move): spec'd

  CompressedPostings assigned;
  assigned = std::move(moved);
  EXPECT_EQ(DecodeAll(assigned), lists);
  EXPECT_EQ(assigned.Validate(), common::Status());
}

TEST(CompressedPostingsTest, RejectsCorruptedBlobs) {
  common::Rng rng(19);
  Lists lists = RandomLists(&rng, 20, 2500);
  CompressedPostings built = CompressedPostings::Build(lists, 2500);
  const std::string wire(built.bytes());

  auto rejects = [](std::string blob, const char* what) {
    auto parsed = CompressedPostings::FromBytes(blob, Ownership::kCopy);
    EXPECT_FALSE(parsed.ok()) << "accepted blob with " << what;
  };

  rejects("", "no bytes");
  rejects(wire.substr(0, 8), "a truncated header");
  {
    std::string bad = wire;
    bad[0] ^= 0x01;
    rejects(bad, "a wrong magic");
  }
  {
    std::string bad = wire;
    bad[4] ^= 0x01;  // num_lists LSB: directory size no longer fits
    rejects(bad, "a tampered list count");
  }
  {
    std::string bad = wire;
    bad[16] ^= 0x01;  // total_count LSB vs the directory sums
    rejects(bad, "a tampered total count");
  }
  // Truncation anywhere in the body is caught.
  for (size_t len = kPostingsHeaderBytes; len < wire.size();
       len += 1 + wire.size() / 97) {
    rejects(wire.substr(0, len), "a truncated body");
  }
}

TEST(CompressedPostingsTest, ValidateCatchesBlockHeaderTampering) {
  // A list dense enough that its first block is a bitmap.
  std::vector<int32_t> dense;
  for (int32_t v = 0; v < 400; ++v) dense.push_back(v);
  CompressedPostings built = CompressedPostings::Build({dense}, 1024);
  const std::string wire(built.bytes());
  // Locate the first block header: data starts at the 64-byte-aligned
  // offset after header + directory.
  size_t data_off = kPostingsHeaderBytes + kPostingsDirEntryBytes;
  data_off = (data_off + kPostingsAlignment - 1) / kPostingsAlignment *
             kPostingsAlignment;
  ASSERT_LT(data_off + 4, wire.size());

  {
    std::string bad = wire;
    bad[data_off + 3] = static_cast<char>(
        bad[data_off + 3] ^ 0x80);  // clear the dense flag on a bitmap block
    auto parsed = CompressedPostings::FromBytes(bad, Ownership::kCopy);
    EXPECT_FALSE(parsed.ok()) << "accepted a flipped dense flag";
  }
  {
    std::string bad = wire;
    bad[data_off + 3] ^= 0x20;  // set a reserved header bit
    auto parsed = CompressedPostings::FromBytes(bad, Ownership::kCopy);
    EXPECT_FALSE(parsed.ok()) << "accepted a reserved header bit";
  }
  {
    std::string bad = wire;
    bad[data_off + 2] ^= 0x10;  // perturb the stored (count - 1)
    auto parsed = CompressedPostings::FromBytes(bad, Ownership::kCopy);
    EXPECT_FALSE(parsed.ok()) << "accepted a tampered block count";
  }
}

// --- counter equivalence -------------------------------------------------

TEST(CompressedCounterTest, MatchesPlainCounterUnderRandomOperations) {
  common::Rng rng(29);
  const int32_t num_billboards = 60;
  const int32_t num_trajectories = 900;
  Lists lists = RandomLists(&rng, num_billboards, num_trajectories);
  influence::InfluenceIndex index = influence::InfluenceIndex::FromIncidence(
      lists, num_trajectories, testing::kFixtureLambda);
  influence::InfluenceIndex twin = CompressedTwin(index);
  ASSERT_FALSE(twin.has_plain());

  for (uint16_t threshold : {uint16_t{1}, uint16_t{2}, uint16_t{3}}) {
    influence::CoverageCounter plain(&index, threshold);
    influence::CoverageCounter comp(&twin, threshold);

    std::vector<bool> in_set(num_billboards, false);
    std::vector<int32_t> members;
    for (int step = 0; step < 2000; ++step) {
      const int32_t o =
          static_cast<int32_t>(rng.UniformU64(num_billboards));
      if (!in_set[o]) {
        plain.Add(o);
        comp.Add(o);
        in_set[o] = true;
        members.push_back(o);
      } else if (rng.Bernoulli(0.5)) {
        plain.Remove(o);
        comp.Remove(o);
        in_set[o] = false;
        members.erase(std::find(members.begin(), members.end(), o));
      }
      ASSERT_EQ(comp.influence(), plain.influence())
          << "threshold " << threshold << " step " << step;

      const int32_t probe =
          static_cast<int32_t>(rng.UniformU64(num_billboards));
      if (!in_set[probe]) {
        ASSERT_EQ(comp.MarginalGain(probe), plain.MarginalGain(probe))
            << "threshold " << threshold << " step " << step;
        if (!members.empty()) {
          const int32_t rem = members[rng.UniformU64(members.size())];
          ASSERT_EQ(comp.MarginalGainAfterRemove(probe, rem),
                    plain.MarginalGainAfterRemove(probe, rem))
              << "threshold " << threshold << " step " << step;
        }
      } else {
        ASSERT_EQ(comp.MarginalLoss(probe), plain.MarginalLoss(probe))
            << "threshold " << threshold << " step " << step;
      }
      ASSERT_EQ(comp.universe(), index.num_covered());
      const int32_t t =
          static_cast<int32_t>(rng.UniformU64(index.num_covered()));
      ASSERT_EQ(comp.CountOf(t), plain.CountOf(t));
    }
  }
}

TEST(CompressedCounterTest, ClearResetsToEmpty) {
  Lists lists = {{0, 1, 2}, {1, 2, 3}, {}};
  influence::InfluenceIndex index = CompressedTwin(
      influence::InfluenceIndex::FromIncidence(lists, 4,
                                               testing::kFixtureLambda));
  influence::CoverageCounter counter(&index);
  counter.Add(0);
  counter.Add(1);
  EXPECT_EQ(counter.influence(), 4);
  counter.Clear();
  EXPECT_EQ(counter.influence(), 0);
  for (int32_t t = 0; t < 4; ++t) EXPECT_EQ(counter.CountOf(t), 0);
  EXPECT_EQ(counter.MarginalGain(0), 3);
}

// --- compressed-only indexes (the mmap serving shape) --------------------

TEST(FromCompressedTest, ServesTheSameIncidenceWithoutPlainLists) {
  common::Rng rng(31);
  gen::NycLikeConfig config;
  config.num_billboards = 80;
  config.num_trajectories = 1200;
  model::Dataset dataset = gen::GenerateNycLike(config, &rng);
  influence::InfluenceIndex full = influence::InfluenceIndex::Build(
      dataset, 150.0);

  influence::InfluenceIndex compact = CompressedTwin(full);
  EXPECT_FALSE(compact.has_plain());
  EXPECT_EQ(compact.num_billboards(), full.num_billboards());
  EXPECT_EQ(compact.num_trajectories(), full.num_trajectories());
  EXPECT_EQ(compact.num_covered(), full.num_covered());
  EXPECT_LT(compact.num_covered(), compact.num_trajectories());
  EXPECT_EQ(compact.TotalSupply(), full.TotalSupply());
  std::vector<model::TrajectoryId> ids;
  compact.ForEachDatasetId([&ids](model::TrajectoryId t) { ids.push_back(t); });
  EXPECT_EQ(ids, full.dataset_ids());
  EXPECT_EQ(compact.lambda(), full.lambda());

  for (int32_t o = 0; o < full.num_billboards(); ++o) {
    EXPECT_EQ(compact.InfluenceOf(o), full.InfluenceOf(o));
    std::vector<model::TrajectoryId> walked;
    compact.ForEachCovered(o, [&](model::TrajectoryId t) {
      walked.push_back(ids[static_cast<size_t>(t)]);
    });
    EXPECT_EQ(walked, testing::DatasetIdsCoveredBy(full, o))
        << "billboard " << o;
  }
  for (int32_t t = 0; t < full.num_covered(); ++t) {
    std::vector<model::BillboardId> walked;
    compact.ForEachCovering(t, [&walked](model::BillboardId o) {
      walked.push_back(o);
    });
    EXPECT_EQ(walked, testing::CoveringVector(full, t))
        << "trajectory " << t;
  }

  // A counter over a plain-free index runs the compressed kernels — there
  // is nothing else to walk.
  influence::CoverageCounter counter(&compact);
  counter.Add(0);
  EXPECT_EQ(counter.influence(), full.InfluenceOf(0));
}

// --- whole-solver bit-identity -------------------------------------------

TEST(SolverBackendTest, CompressedBackendIsBitIdenticalAcrossMethods) {
  common::Rng rng(37);
  gen::NycLikeConfig gen_config;
  gen_config.num_billboards = 60;
  gen_config.num_trajectories = 800;
  model::Dataset dataset = gen::GenerateNycLike(gen_config, &rng);
  influence::InfluenceIndex index =
      influence::InfluenceIndex::Build(dataset, 200.0);
  influence::AssignBillboardCosts(&dataset, index, &rng);
  influence::InfluenceIndex twin = CompressedTwin(index);
  std::vector<market::Advertiser> advertisers = {
      testing::Adv(0, 120, 40.0), testing::Adv(1, 300, 90.0),
      testing::Adv(2, 50, 15.0)};

  for (core::Method method : core::AllMethods()) {
    for (int32_t threads : {1, 4}) {
      core::SolverConfig config;
      config.method = method;
      config.seed = 5;
      config.local_search.num_threads = threads;

      core::SolveResult plain = core::Solve(index, advertisers, config);
      core::SolveResult comp = core::Solve(twin, advertisers, config);
      EXPECT_EQ(comp.sets, plain.sets)
          << core::MethodName(method) << " threads " << threads;
      EXPECT_EQ(comp.influences, plain.influences)
          << core::MethodName(method) << " threads " << threads;
      EXPECT_DOUBLE_EQ(comp.breakdown.total, plain.breakdown.total)
          << core::MethodName(method) << " threads " << threads;
    }
  }
}

TEST(SolverBackendTest, ImpressionThresholdRunsMatchToo) {
  influence::InfluenceIndex index = testing::IndexFromIncidence(
      testing::PaperExampleIncidence(), 20);
  influence::InfluenceIndex twin = CompressedTwin(index);
  core::SolverConfig config;
  config.method = core::Method::kBls;
  config.impression_threshold = 2;

  core::SolveResult plain =
      core::Solve(index, testing::PaperExampleAdvertisers(), config);
  core::SolveResult comp =
      core::Solve(twin, testing::PaperExampleAdvertisers(), config);
  EXPECT_EQ(comp.sets, plain.sets);
  EXPECT_EQ(comp.influences, plain.influences);
  EXPECT_DOUBLE_EQ(comp.breakdown.total, plain.breakdown.total);
}

}  // namespace
}  // namespace mroam::cindex
