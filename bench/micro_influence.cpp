// google-benchmark micro-benchmarks of the influence engine: index build,
// coverage counter operations, move-delta evaluation primitives, and the
// cindex compressed-postings codec (decode throughput and bytes per
// posting, compressed vs plain — the numbers behind the
// check_cindex_regression tier-1 gate).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "influence/coverage_counter.h"
#include "micro_main.h"

namespace {

using namespace mroam;  // NOLINT: harness brevity

model::Dataset& SmallNyc() {
  static model::Dataset* dataset = [] {
    gen::NycLikeConfig config;
    config.num_billboards = 400;
    config.num_trajectories = 4000;
    common::Rng rng(1);
    return new model::Dataset(gen::GenerateNycLike(config, &rng));
  }();
  return *dataset;
}

influence::InfluenceIndex& SmallIndex() {
  static influence::InfluenceIndex* index = [] {
    return new influence::InfluenceIndex(
        influence::InfluenceIndex::Build(SmallNyc(), 100.0));
  }();
  return *index;
}

void BM_InfluenceIndexBuild(benchmark::State& state) {
  const model::Dataset& dataset = SmallNyc();
  for (auto _ : state) {
    influence::InfluenceIndex index =
        influence::InfluenceIndex::Build(dataset, 100.0);
    benchmark::DoNotOptimize(index.TotalSupply());
  }
}
BENCHMARK(BM_InfluenceIndexBuild)->Unit(benchmark::kMillisecond);

void BM_CoverageCounterAddRemove(benchmark::State& state) {
  influence::InfluenceIndex& index = SmallIndex();
  influence::CoverageCounter counter(&index);
  common::Rng rng(2);
  std::vector<model::BillboardId> order(index.num_billboards());
  for (int32_t i = 0; i < index.num_billboards(); ++i) order[i] = i;
  rng.Shuffle(order);
  size_t pos = 0;
  for (auto _ : state) {
    model::BillboardId o = order[pos];
    counter.Add(o);
    counter.Remove(o);
    pos = (pos + 1) % order.size();
    benchmark::DoNotOptimize(counter.influence());
  }
}
BENCHMARK(BM_CoverageCounterAddRemove);

void BM_MarginalGain(benchmark::State& state) {
  influence::InfluenceIndex& index = SmallIndex();
  influence::CoverageCounter counter(&index);
  for (int32_t o = 0; o < index.num_billboards(); o += 2) counter.Add(o);
  int32_t probe = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter.MarginalGain(probe));
    probe += 2;
    if (probe >= index.num_billboards()) probe = 1;
  }
}
BENCHMARK(BM_MarginalGain);

void BM_MarginalGainAfterRemove(benchmark::State& state) {
  influence::InfluenceIndex& index = SmallIndex();
  influence::CoverageCounter counter(&index);
  for (int32_t o = 0; o < index.num_billboards(); o += 2) counter.Add(o);
  int32_t add = 1, rem = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter.MarginalGainAfterRemove(add, rem));
    add += 2;
    rem += 2;
    if (add >= index.num_billboards()) add = 1;
    if (rem >= index.num_billboards()) rem = 0;
  }
}
BENCHMARK(BM_MarginalGainAfterRemove);

// --- cindex codec: decode throughput + density --------------------------
//
// Codec benches run against a dense incidence structure (same city,
// lambda = 1000m): the micro solver workload above keeps lambda small so
// solver iterations stay cheap, but its incidence lists are then ~10
// postings over a 4000-trajectory universe — all block/directory
// overhead. The dense city puts hundreds of postings in each list, and
// it is the workload the >= 3x compression acceptance floor is anchored
// to; the ratio holds for dense lists only. The city `mroam_serve --gen`
// serves by default (400 billboards, 20,000 trajectories, lambda = 100m)
// has ~27 postings per list and encodes at ~3.6 B per posting over its
// compacted universe of 8,102 covered trajectories, close to a flat
// int32.
influence::InfluenceIndex& DenseIndex() {
  static influence::InfluenceIndex* index = [] {
    return new influence::InfluenceIndex(
        influence::InfluenceIndex::Build(SmallNyc(), 1000.0));
  }();
  return *index;
}

// The two decode benchmarks walk every incidence list once per iteration,
// summing the ids so the walk cannot be elided. The compressed walk runs
// the branch-light block decoder (dense popcount blocks / sparse
// delta-varint); the plain walk reads the flat int32 vectors. The
// density counters are workload-deterministic (fixed generator seed, the
// codec has no randomness), so check_cindex_regression gates them
// exactly; the throughput counter is wall-clock and is gated only by a
// generous floor.

void BM_CompressedDecode(benchmark::State& state) {
  const influence::InfluenceIndex& index = DenseIndex();
  const cindex::CompressedPostings postings = cindex::CompressedPostings::Build(
      index.covered(), index.num_covered());
  int64_t decoded = 0;
  for (auto _ : state) {
    int64_t sum = 0;
    for (uint32_t o = 0; o < postings.num_lists(); ++o) {
      postings.ForEach(static_cast<int32_t>(o),
                       [&sum](int32_t v) { sum += v; });
    }
    benchmark::DoNotOptimize(sum);
    decoded += static_cast<int64_t>(postings.total_count());
  }
  const double total = static_cast<double>(postings.total_count());
  const double bytes = static_cast<double>(postings.bytes().size());
  state.counters["cindex.decode_mvalues_per_s"] = benchmark::Counter(
      static_cast<double>(decoded) / 1e6, benchmark::Counter::kIsRate);
  state.counters["cindex.bytes_per_posting"] =
      benchmark::Counter(bytes / total);
  // vs a flat int32 posting (4 bytes) — the acceptance floor is 3x.
  state.counters["cindex.compression_ratio"] =
      benchmark::Counter(4.0 * total / bytes);
}
BENCHMARK(BM_CompressedDecode)->Unit(benchmark::kMicrosecond);

void BM_PlainDecode(benchmark::State& state) {
  influence::InfluenceIndex& index = DenseIndex();
  int64_t decoded = 0;
  for (auto _ : state) {
    int64_t sum = 0;
    for (const auto& list : index.covered()) {
      for (model::TrajectoryId t : list) sum += t;
    }
    benchmark::DoNotOptimize(sum);
    decoded += index.TotalSupply();
  }
  state.counters["plain.decode_mvalues_per_s"] = benchmark::Counter(
      static_cast<double>(decoded) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PlainDecode)->Unit(benchmark::kMicrosecond);

// SmallIndex() as compressed blobs only — the FromCompressed shape an
// mmap-booted server runs on.
influence::InfluenceIndex& SmallCompressedIndex() {
  static influence::InfluenceIndex* index = [] {
    const influence::InfluenceIndex& plain = SmallIndex();
    return new influence::InfluenceIndex(
        influence::InfluenceIndex::FromCompressed(
            cindex::CompressedPostings::Build(plain.covered(),
                                              plain.num_covered()),
            cindex::CompressedPostings::Build(plain.covering(),
                                              plain.num_billboards()),
            cindex::CompressedPostings::Build({plain.dataset_ids()},
                                              plain.num_trajectories()),
            plain.lambda()));
  }();
  return *index;
}

// Mirrors BM_CoverageCounterAddRemove on the compressed form of the same
// index: same board order, with both the trajectory list and the covering
// lists the marginal tables' upkeep walks decoded from blocks. Results are
// bit-identical (the equivalence tests enforce it); this measures the cost
// delta. MarginalGain itself is a table read on either form.
void BM_CompressedCoverageCounterAddRemove(benchmark::State& state) {
  influence::InfluenceIndex& index = SmallCompressedIndex();
  influence::CoverageCounter counter(&index);
  common::Rng rng(2);
  std::vector<model::BillboardId> order(index.num_billboards());
  for (int32_t i = 0; i < index.num_billboards(); ++i) order[i] = i;
  rng.Shuffle(order);
  size_t pos = 0;
  for (auto _ : state) {
    model::BillboardId o = order[pos];
    counter.Add(o);
    counter.Remove(o);
    pos = (pos + 1) % order.size();
    benchmark::DoNotOptimize(counter.influence());
  }
}
BENCHMARK(BM_CompressedCoverageCounterAddRemove);

void BM_InfluenceOfSet(benchmark::State& state) {
  influence::InfluenceIndex& index = SmallIndex();
  std::vector<model::BillboardId> set;
  for (int32_t o = 0; o < index.num_billboards(); o += 7) set.push_back(o);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.InfluenceOfSet(set));
  }
}
BENCHMARK(BM_InfluenceOfSet)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return mroam::bench::RunMicroBenchmarkMain(argc, argv, "micro_influence");
}
