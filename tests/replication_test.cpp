// Tests for confidence intervals and the multi-seed replication runner.

#include <gtest/gtest.h>

#include <cmath>

#include "ecocloud/scenario/replication.hpp"
#include "ecocloud/stats/confidence.hpp"
#include "ecocloud/util/rng.hpp"

using namespace ecocloud;

// ------------------------------------------------------------------ Student-t

TEST(StudentT, KnownCriticalValues) {
  EXPECT_NEAR(stats::student_t_95(1), 12.706, 1e-3);
  EXPECT_NEAR(stats::student_t_95(4), 2.776, 1e-3);
  EXPECT_NEAR(stats::student_t_95(9), 2.262, 1e-3);
  EXPECT_NEAR(stats::student_t_95(30), 2.042, 1e-3);
  EXPECT_DOUBLE_EQ(stats::student_t_95(1000), 1.96);
  EXPECT_THROW((void)stats::student_t_95(0), std::invalid_argument);
}

TEST(StudentT, MonotoneDecreasing) {
  for (std::size_t df = 1; df < 30; ++df) {
    EXPECT_GT(stats::student_t_95(df), stats::student_t_95(df + 1));
  }
}

// ----------------------------------------------------------------------- CIs

TEST(MeanCi, HandComputedExample) {
  // Samples {1,2,3,4,5}: mean 3, sample sd sqrt(2.5), se sqrt(0.5),
  // t(4) = 2.776 -> half width 1.9629.
  const auto ci = stats::mean_ci_95({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(ci.mean, 3.0);
  EXPECT_NEAR(ci.half_width, 2.776 * std::sqrt(0.5), 1e-3);
  EXPECT_NEAR(ci.lower(), 3.0 - ci.half_width, 1e-12);
  EXPECT_EQ(ci.n, 5u);
}

TEST(MeanCi, SingleSampleHasZeroWidth) {
  const auto ci = stats::mean_ci_95({7.0});
  EXPECT_DOUBLE_EQ(ci.mean, 7.0);
  EXPECT_DOUBLE_EQ(ci.half_width, 0.0);
  EXPECT_THROW((void)stats::mean_ci_95({}), std::invalid_argument);
}

TEST(MeanCi, CoversTrueMeanAtNominalRate) {
  // 95% CIs over N(0,1) samples should cover 0 roughly 95% of the time.
  util::Rng rng(4242);
  int covered = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> samples;
    for (int i = 0; i < 8; ++i) samples.push_back(rng.normal());
    const auto ci = stats::mean_ci_95(samples);
    if (ci.lower() <= 0.0 && 0.0 <= ci.upper()) ++covered;
  }
  EXPECT_NEAR(covered / static_cast<double>(trials), 0.95, 0.02);
}

TEST(MeanCi, SeparationCheck) {
  stats::MeanCI a{10.0, 1.0, 5};
  stats::MeanCI b{13.0, 1.5, 5};
  stats::MeanCI c{11.5, 1.0, 5};
  EXPECT_TRUE(a.separated_from(b));
  EXPECT_FALSE(a.separated_from(c));
  EXPECT_TRUE(b.separated_from(a));
}

// ---------------------------------------------------------------- replication

namespace {

scenario::DailyConfig small_config() {
  scenario::DailyConfig config;
  config.fleet.num_servers = 25;
  config.num_vms = 300;
  config.horizon_s = 3.0 * sim::kHour;
  config.seed = 900;
  return config;
}

}  // namespace

TEST(Replication, AggregatesAcrossSeeds) {
  const auto result = scenario::run_replicated(
      small_config(), scenario::Algorithm::kEcoCloud, 4);
  EXPECT_EQ(result.replications, 4u);
  EXPECT_EQ(result.energy_kwh.n, 4u);
  EXPECT_GT(result.energy_kwh.mean, 0.0);
  EXPECT_GT(result.energy_kwh.half_width, 0.0);  // seeds differ
  EXPECT_GT(result.mean_active_servers.mean, 1.0);
}

TEST(Replication, SequentialAndParallelAgree) {
  util::ThreadPool pool(3);
  const auto sequential = scenario::run_replicated(
      small_config(), scenario::Algorithm::kEcoCloud, 3, nullptr);
  const auto parallel = scenario::run_replicated(
      small_config(), scenario::Algorithm::kEcoCloud, 3, &pool);
  EXPECT_DOUBLE_EQ(sequential.energy_kwh.mean, parallel.energy_kwh.mean);
  EXPECT_DOUBLE_EQ(sequential.migrations.mean, parallel.migrations.mean);
  EXPECT_DOUBLE_EQ(sequential.overload_percent.half_width,
                   parallel.overload_percent.half_width);
}

TEST(Replication, MatchesSingleRunForOneReplication) {
  auto config = small_config();
  const auto replicated =
      scenario::run_replicated(config, scenario::Algorithm::kEcoCloud, 1);
  scenario::DailyScenario daily(config);
  daily.run();
  const auto single = scenario::collect_metrics(daily);
  EXPECT_DOUBLE_EQ(replicated.energy_kwh.mean, single.energy_kwh);
  EXPECT_DOUBLE_EQ(replicated.migrations.mean, single.migrations);
  EXPECT_DOUBLE_EQ(replicated.energy_kwh.half_width, 0.0);
}

TEST(Replication, WorksForCentralizedAlgorithm) {
  const auto result = scenario::run_replicated(
      small_config(), scenario::Algorithm::kCentralized, 2);
  EXPECT_EQ(result.replications, 2u);
  EXPECT_GT(result.energy_kwh.mean, 0.0);
}

TEST(Replication, RejectsZeroReplications) {
  EXPECT_THROW((void)scenario::run_replicated(
                   small_config(), scenario::Algorithm::kEcoCloud, 0),
               std::invalid_argument);
}
