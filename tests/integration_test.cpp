// End-to-end pipeline tests on small synthetic cities: generate ->
// influence index -> workload -> all four solvers -> evaluation, checking
// the qualitative relationships the paper reports (§7.2).
#include <sstream>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "eval/experiment.h"
#include "gen/city_generators.h"
#include "influence/influence_index.h"

namespace mroam {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    common::Rng nyc_rng(1001), sg_rng(2002);
    gen::NycLikeConfig nyc_cfg;
    nyc_cfg.num_billboards = 250;
    nyc_cfg.num_trajectories = 2500;
    nyc_ = new model::Dataset(gen::GenerateNycLike(nyc_cfg, &nyc_rng));
    nyc_index_ = new influence::InfluenceIndex(
        influence::InfluenceIndex::Build(*nyc_, 100.0));

    gen::SgLikeConfig sg_cfg;
    sg_cfg.num_billboards = 500;
    sg_cfg.num_trajectories = 3000;
    sg_ = new model::Dataset(gen::GenerateSgLike(sg_cfg, &sg_rng));
    sg_index_ = new influence::InfluenceIndex(
        influence::InfluenceIndex::Build(*sg_, 100.0));
  }

  static void TearDownTestSuite() {
    delete nyc_index_;
    delete nyc_;
    delete sg_index_;
    delete sg_;
    nyc_index_ = nullptr;
    nyc_ = nullptr;
    sg_index_ = nullptr;
    sg_ = nullptr;
  }

  static eval::ExperimentConfig DefaultConfig() {
    eval::ExperimentConfig config;
    config.workload.alpha = 1.0;
    config.workload.avg_individual_demand_ratio = 0.05;
    config.regret.gamma = 0.5;
    config.local_search.restarts = 2;
    config.local_search.max_sweeps = 10;
    return config;
  }

  static model::Dataset* nyc_;
  static influence::InfluenceIndex* nyc_index_;
  static model::Dataset* sg_;
  static influence::InfluenceIndex* sg_index_;
};

model::Dataset* PipelineTest::nyc_ = nullptr;
influence::InfluenceIndex* PipelineTest::nyc_index_ = nullptr;
model::Dataset* PipelineTest::sg_ = nullptr;
influence::InfluenceIndex* PipelineTest::sg_index_ = nullptr;

TEST_F(PipelineTest, SuppliesArePositive) {
  EXPECT_GT(nyc_index_->TotalSupply(), 0);
  EXPECT_GT(sg_index_->TotalSupply(), 0);
}

TEST_F(PipelineTest, DefaultPointRunsAllMethods) {
  auto point = eval::RunExperimentPoint(*nyc_index_, DefaultConfig(), "a=1");
  ASSERT_TRUE(point.ok()) << point.status();
  ASSERT_EQ(point->results.size(), 4u);
  EXPECT_EQ(point->num_advertisers, 20);
  for (const eval::MethodResult& r : point->results) {
    EXPECT_GE(r.breakdown.total, 0.0);
    EXPECT_EQ(r.breakdown.advertiser_count, 20);
    EXPECT_GE(r.seconds, 0.0);
  }
}

TEST_F(PipelineTest, LocalSearchOutperformsGreedyOnNyc) {
  auto point = eval::RunExperimentPoint(*nyc_index_, DefaultConfig(), "x");
  ASSERT_TRUE(point.ok());
  double g_global = 0.0, als = 0.0, bls = 0.0;
  for (const eval::MethodResult& r : point->results) {
    if (r.method == core::Method::kGGlobal) g_global = r.breakdown.total;
    if (r.method == core::Method::kAls) als = r.breakdown.total;
    if (r.method == core::Method::kBls) bls = r.breakdown.total;
  }
  EXPECT_LE(als, g_global + 1e-6);
  EXPECT_LE(bls, g_global + 1e-6);
}

TEST_F(PipelineTest, LowAlphaMeansEveryoneSatisfiedOnSg) {
  // Paper Case 1/2: at low global demand every advertiser can be served,
  // so the unsatisfied penalty vanishes for the local-search methods.
  eval::ExperimentConfig config = DefaultConfig();
  config.workload.alpha = 0.4;
  auto point = eval::RunExperimentPoint(*sg_index_, config, "a=0.4");
  ASSERT_TRUE(point.ok());
  for (const eval::MethodResult& r : point->results) {
    if (r.method == core::Method::kBls) {
      EXPECT_GE(r.breakdown.satisfied_count,
                r.breakdown.advertiser_count - 1)
          << "BLS should satisfy (almost) everyone at alpha=0.4";
    }
  }
}

TEST_F(PipelineTest, ExcessiveAlphaShiftsRegretToUnsatisfiedPenalty) {
  // Paper Case 3/4: when demand exceeds supply, the unsatisfied penalty
  // dominates the regret decomposition.
  eval::ExperimentConfig config = DefaultConfig();
  config.workload.alpha = 1.2;
  auto point = eval::RunExperimentPoint(*nyc_index_, config, "a=1.2");
  ASSERT_TRUE(point.ok());
  for (const eval::MethodResult& r : point->results) {
    EXPECT_LT(r.breakdown.satisfied_count, r.breakdown.advertiser_count);
    EXPECT_GT(r.breakdown.unsatisfied_penalty, r.breakdown.excessive)
        << core::MethodName(r.method);
  }
}

TEST_F(PipelineTest, GammaOnlySoftensAFixedPlansRegret) {
  // For any FIXED deployment, increasing gamma can only lower the regret
  // (it discounts the unsatisfied penalty and leaves excess untouched).
  // Across re-solves the heuristics may land elsewhere, so the guarantee
  // — and this test — is about a fixed plan.
  common::Rng rng(5);
  market::WorkloadConfig workload;
  workload.alpha = 1.2;
  auto ads = market::GenerateAdvertisers(nyc_index_->TotalSupply(), workload,
                                         &rng);
  ASSERT_TRUE(ads.ok());
  core::SolverConfig solver;
  solver.method = core::Method::kGGlobal;
  solver.regret.gamma = 0.5;
  core::SolveResult plan = core::Solve(*nyc_index_, *ads, solver);

  double prev_total = -1.0;
  bool first = true;
  for (double gamma : {1.0, 0.75, 0.5, 0.25, 0.0}) {
    core::RegretParams params{gamma};
    double total = 0.0;
    for (size_t a = 0; a < ads->size(); ++a) {
      total += core::Regret((*ads)[a], plan.influences[a], params);
    }
    if (!first) {
      EXPECT_GE(total, prev_total - 1e-9) << "gamma=" << gamma;
    }
    first = false;
    prev_total = total;
  }
}

TEST_F(PipelineTest, SeriesPrintingAndCsvExport) {
  eval::ExperimentConfig config = DefaultConfig();
  config.methods = {core::Method::kGGlobal};
  std::vector<eval::ExperimentPoint> points;
  for (double alpha : {0.4, 1.0}) {
    config.workload.alpha = alpha;
    auto point = eval::RunExperimentPoint(*sg_index_, config,
                                          "alpha=" + std::to_string(alpha));
    ASSERT_TRUE(point.ok());
    points.push_back(std::move(point).value());
  }
  std::ostringstream os;
  eval::PrintExperimentSeries(os, "test series", points);
  EXPECT_NE(os.str().find("G-Global"), std::string::npos);
  EXPECT_NE(os.str().find("regret"), std::string::npos);

  std::string csv_path = ::testing::TempDir() + "/mroam_series.csv";
  ASSERT_TRUE(eval::WriteExperimentSeriesCsv(csv_path, points).ok());
  auto rows = common::ReadCsvFile(csv_path);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // header + 2 points x 1 method
}

TEST_F(PipelineTest, InvalidWorkloadConfigSurfacesError) {
  eval::ExperimentConfig config = DefaultConfig();
  config.workload.alpha = -1.0;
  auto point = eval::RunExperimentPoint(*nyc_index_, config, "bad");
  EXPECT_FALSE(point.ok());
}

}  // namespace
}  // namespace mroam
