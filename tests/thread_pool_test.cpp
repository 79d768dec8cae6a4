#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/solver.h"
#include "test_util.h"

namespace mroam::common {
namespace {

TEST(ThreadPoolTest, StartupAndShutdownWithoutWork) {
  for (int n : {1, 2, 4, 8}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.num_threads(), n);
  }  // destructor joins with an empty queue
}

TEST(ThreadPoolTest, RunsEveryTaskOnFewerThreads) {
  constexpr int kTasks = 100;
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.Submit([&executed] {
      executed.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(executed.load(), kTasks);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  constexpr int kTasks = 32;
  std::atomic<int> executed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&executed] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // destructor must run everything already queued
  EXPECT_EQ(executed.load(), kTasks);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionsThroughTheFuture) {
  ThreadPool pool(2);
  std::future<void> ok = pool.Submit([] {});
  std::future<void> bad =
      pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr int64_t kN = 200;
  ThreadPool pool(4);
  std::vector<int> hits(kN, 0);
  ParallelFor(&pool, kN, [&hits](int64_t i) { ++hits[i]; });
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsInline) {
  std::vector<int> hits(10, 0);
  ParallelFor(nullptr, 10, [&hits](int64_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
  ParallelFor(nullptr, 0, [](int64_t) { FAIL() << "n=0 must not invoke"; });
}

TEST(ParallelForTest, RethrowsTheLowestIndexException) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  try {
    ParallelFor(&pool, 8, [&executed](int64_t i) {
      executed.fetch_add(1, std::memory_order_relaxed);
      if (i == 3) throw std::invalid_argument("index 3");
      if (i == 6) throw std::runtime_error("index 6");
    });
    FAIL() << "expected an exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "index 3");  // lowest failing index wins
  }
  EXPECT_EQ(executed.load(), 8);  // every task still ran to completion
}

// The contract the parallel restart engine is built on: Solve must yield
// a bit-identical RegretBreakdown for any thread count at a fixed seed.
TEST(ParallelSolveDeterminismTest, BlsBreakdownIdenticalAcrossThreadCounts) {
  model::Dataset dataset;
  influence::InfluenceIndex index = mroam::testing::IndexFromIncidence(
      mroam::testing::PaperExampleIncidence(), 20, &dataset);
  const std::vector<market::Advertiser> ads =
      mroam::testing::PaperExampleAdvertisers();

  core::SolverConfig config;
  config.method = core::Method::kBls;
  config.seed = 2026;
  config.local_search.restarts = 6;

  config.local_search.num_threads = 1;
  core::SolveResult baseline = core::Solve(index, ads, config);

  for (int32_t threads : {2, 8}) {
    config.local_search.num_threads = threads;
    core::SolveResult result = core::Solve(index, ads, config);
    EXPECT_EQ(result.breakdown.total, baseline.breakdown.total)
        << threads << " threads";
    EXPECT_EQ(result.breakdown.excessive, baseline.breakdown.excessive);
    EXPECT_EQ(result.breakdown.unsatisfied_penalty,
              baseline.breakdown.unsatisfied_penalty);
    EXPECT_EQ(result.breakdown.satisfied_count,
              baseline.breakdown.satisfied_count);
    EXPECT_EQ(result.influences, baseline.influences);
    EXPECT_EQ(result.sets, baseline.sets);
    EXPECT_EQ(result.search_stats.moves_applied,
              baseline.search_stats.moves_applied);
    EXPECT_EQ(result.search_stats.deltas_evaluated,
              baseline.search_stats.deltas_evaluated);
    EXPECT_EQ(result.search_stats.sweeps, baseline.search_stats.sweeps);
  }
}

TEST(ParallelSolveDeterminismTest, AlsBreakdownIdenticalAcrossThreadCounts) {
  model::Dataset dataset;
  influence::InfluenceIndex index = mroam::testing::IndexFromIncidence(
      mroam::testing::PaperExampleIncidence(), 20, &dataset);
  const std::vector<market::Advertiser> ads =
      mroam::testing::PaperExampleAdvertisers();

  core::SolverConfig config;
  config.method = core::Method::kAls;
  config.seed = 7;
  config.local_search.restarts = 5;

  config.local_search.num_threads = 1;
  core::SolveResult baseline = core::Solve(index, ads, config);
  for (int32_t threads : {2, 8, 0 /* auto */}) {
    config.local_search.num_threads = threads;
    core::SolveResult result = core::Solve(index, ads, config);
    EXPECT_EQ(result.breakdown.total, baseline.breakdown.total)
        << threads << " threads";
    EXPECT_EQ(result.sets, baseline.sets);
  }
}

// Every method's plan is a pure function of the seed: the greedies and BLS
// on a random instance dense with overlaps and exact selection-rule ties.
TEST(ParallelSolveDeterminismTest, SolveIdenticalAcrossThreadCounts) {
  Rng rng(7);
  std::vector<std::vector<model::TrajectoryId>> covered(30);
  for (auto& list : covered) {
    for (model::TrajectoryId t = 0; t < 15; ++t) {
      if (rng.Bernoulli(0.3)) list.push_back(t);
    }
  }
  model::Dataset dataset;
  influence::InfluenceIndex index =
      mroam::testing::IndexFromIncidence(covered, 15, &dataset);
  std::vector<market::Advertiser> ads;
  for (market::AdvertiserId a = 0; a < 6; ++a) {
    ads.push_back(mroam::testing::Adv(
        a, rng.UniformInt(1, 20), static_cast<double>(rng.UniformInt(1, 50))));
  }

  for (core::Method method :
       {core::Method::kGOrder, core::Method::kGGlobal, core::Method::kBls}) {
    core::SolverConfig config;
    config.method = method;
    config.seed = 11;
    config.local_search.restarts = 2;
    config.local_search.num_threads = 1;
    const core::SolveResult baseline = core::Solve(index, ads, config);
    config.local_search.num_threads = 4;
    const core::SolveResult result = core::Solve(index, ads, config);
    EXPECT_EQ(result.sets, baseline.sets) << core::MethodName(method);
    EXPECT_EQ(result.breakdown.total, baseline.breakdown.total)
        << core::MethodName(method);
  }
}

}  // namespace
}  // namespace mroam::common
