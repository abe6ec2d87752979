// Unit tests for the synthetic workload substrate: diurnal pattern,
// workload model calibration, trace sets, arrival processes, rate
// estimation.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ecocloud/stats/histogram.hpp"
#include "ecocloud/stats/welford.hpp"
#include "ecocloud/trace/arrivals.hpp"
#include "ecocloud/trace/diurnal.hpp"
#include "ecocloud/trace/rate_estimator.hpp"
#include "ecocloud/trace/streaming_traces.hpp"
#include "ecocloud/trace/trace_set.hpp"
#include "ecocloud/trace/trace_source.hpp"
#include "ecocloud/trace/workload_model.hpp"

namespace trace = ecocloud::trace;
namespace stats = ecocloud::stats;
using ecocloud::util::Rng;

// ------------------------------------------------------------------- diurnal

TEST(Diurnal, PeaksAtConfiguredHour) {
  trace::DiurnalPattern g(0.3, 14.0);
  EXPECT_NEAR(g.value(14.0 * 3600.0), 1.3, 1e-12);
  EXPECT_NEAR(g.value(2.0 * 3600.0), 0.7, 1e-12);  // trough 12 h later
}

TEST(Diurnal, MeanOverDayIsOne) {
  trace::DiurnalPattern g(0.25, 10.0);
  double acc = 0.0;
  const int n = 24 * 60;
  for (int i = 0; i < n; ++i) acc += g.value(i * 60.0);
  EXPECT_NEAR(acc / n, 1.0, 1e-6);
}

TEST(Diurnal, PeriodIs24Hours) {
  trace::DiurnalPattern g(0.2, 14.0);
  for (double h : {0.0, 5.5, 13.0, 23.9}) {
    EXPECT_NEAR(g.value(h * 3600.0), g.value((h + 24.0) * 3600.0), 1e-12);
  }
}

TEST(Diurnal, BoundsAndValidation) {
  trace::DiurnalPattern g(0.22, 14.0);
  EXPECT_DOUBLE_EQ(g.min(), 0.78);
  EXPECT_DOUBLE_EQ(g.max(), 1.22);
  EXPECT_THROW(trace::DiurnalPattern(1.0, 14.0), std::invalid_argument);
  EXPECT_THROW(trace::DiurnalPattern(0.2, 24.0), std::invalid_argument);
}

TEST(Diurnal, ZeroAmplitudeIsFlat) {
  trace::DiurnalPattern g(0.0, 14.0);
  for (double h = 0.0; h < 24.0; h += 1.0) {
    EXPECT_DOUBLE_EQ(g.value(h * 3600.0), 1.0);
  }
}

// ------------------------------------------------------------ workload model

TEST(WorkloadModel, BinWeightsNormalizableAndDecreasingTail) {
  const auto& w = trace::WorkloadModel::average_bin_weights();
  ASSERT_EQ(w.size(), 20u);
  double total = 0.0;
  for (double x : w) {
    EXPECT_GT(x, 0.0);
    total += x;
  }
  EXPECT_NEAR(total, 1.0, 0.05);
  // Mass concentrated below 20% (paper Fig. 4).
  EXPECT_GT(w[0] + w[1] + w[2] + w[3], 0.6);
  // Tail decreasing beyond the mode.
  for (std::size_t i = 2; i + 1 < w.size(); ++i) {
    EXPECT_GE(w[i], w[i + 1]);
  }
}

TEST(WorkloadModel, ExpectedAverageMatchesSampling) {
  trace::WorkloadModel model;
  Rng rng(1);
  stats::Welford acc;
  for (int i = 0; i < 50000; ++i) {
    acc.add(model.sample_average_percent(rng));
  }
  EXPECT_NEAR(acc.mean(), trace::WorkloadModel::expected_average_percent(), 0.3);
  EXPECT_GE(acc.min(), 0.0);
  EXPECT_LE(acc.max(), 100.0);
}

TEST(WorkloadModel, Fig4ShapeMostVmsUnder20Percent) {
  trace::WorkloadModel model;
  Rng rng(2);
  stats::Histogram h(0.0, 100.0, 20);
  for (int i = 0; i < 20000; ++i) h.add(model.sample_average_percent(rng));
  EXPECT_GT(h.fraction_within(0.0, 20.0), 0.6);
  EXPECT_LT(h.fraction_within(50.0, 100.0), 0.12);
}

TEST(WorkloadModel, SeriesWithinBoundsAndRightLength) {
  trace::WorkloadModel model;
  Rng rng(3);
  const auto series = model.generate_series(rng, 15.0, 500);
  ASSERT_EQ(series.size(), 500u);
  for (float x : series) {
    EXPECT_GE(x, 0.0f);
    EXPECT_LE(x, 100.0f);
  }
}

TEST(WorkloadModel, Fig5DeviationsMostlyWithinTenPoints) {
  trace::WorkloadConfig cfg;
  trace::WorkloadModel model(cfg);
  Rng rng(4);
  std::size_t total = 0, within = 0;
  for (int vm = 0; vm < 300; ++vm) {
    const double avg = model.sample_average_percent(rng);
    const auto series = model.generate_series(rng, avg, 576);
    for (float x : series) {
      ++total;
      if (std::fabs(static_cast<double>(x) - avg) < 10.0) ++within;
    }
  }
  // Paper: ~94% of deviations below 10 points.
  EXPECT_GT(static_cast<double>(within) / static_cast<double>(total), 0.85);
}

TEST(WorkloadModel, DeviationsCenteredNearZero) {
  trace::WorkloadModel model;
  Rng rng(5);
  stats::Welford dev;
  for (int vm = 0; vm < 200; ++vm) {
    const double avg = model.sample_average_percent(rng);
    for (float x : model.generate_series(rng, avg, 288)) {
      dev.add(static_cast<double>(x) - avg);
    }
  }
  EXPECT_NEAR(dev.mean(), 0.0, 1.0);
}

TEST(WorkloadModel, SeriesAutocorrelated) {
  trace::WorkloadConfig cfg;
  cfg.diurnal = trace::DiurnalPattern(0.0, 14.0);  // isolate the AR(1) part
  trace::WorkloadModel model(cfg);
  Rng rng(6);
  const auto series = model.generate_series(rng, 30.0, 2000);
  // Lag-1 autocorrelation of deviations should be near rho = 0.7.
  double mean = 0.0;
  for (float x : series) mean += x;
  mean /= static_cast<double>(series.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i + 1 < series.size(); ++i) {
    num += (series[i] - mean) * (series[i + 1] - mean);
    den += (series[i] - mean) * (series[i] - mean);
  }
  EXPECT_NEAR(num / den, 0.7, 0.1);
}

TEST(WorkloadModel, PercentToMhz) {
  trace::WorkloadModel model;
  EXPECT_DOUBLE_EQ(model.percent_to_mhz(50.0), 1000.0);
}

TEST(WorkloadModel, ValidatesConfig) {
  trace::WorkloadConfig bad;
  bad.ar1_rho = 1.0;
  EXPECT_THROW(trace::WorkloadModel{bad}, std::invalid_argument);
  trace::WorkloadConfig bad2;
  bad2.reference_mhz = 0.0;
  EXPECT_THROW(trace::WorkloadModel{bad2}, std::invalid_argument);
}

// ----------------------------------------------------------------- trace set

TEST(TraceSet, GenerateShapes) {
  trace::WorkloadModel model;
  Rng rng(7);
  const auto set = trace::TraceSet::generate(model, 50, 100, rng);
  EXPECT_EQ(set.num_vms(), 50u);
  EXPECT_EQ(set.num_steps(), 100u);
  EXPECT_DOUBLE_EQ(set.sample_period_s(), 300.0);
  for (std::size_t v = 0; v < set.num_vms(); ++v) {
    EXPECT_GE(set.average_percent(v), 0.0);
    EXPECT_LE(set.average_percent(v), 100.0);
    EXPECT_GE(set.ram_mb(v), 512.0);
  }
}

TEST(TraceSet, StepsWrapAround) {
  trace::WorkloadModel model;
  Rng rng(8);
  const auto set = trace::TraceSet::generate(model, 3, 10, rng);
  EXPECT_DOUBLE_EQ(set.percent_at(0, 3), set.percent_at(0, 13));
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_EQ(set.step_row(k + 10), set.step_row(k));
    EXPECT_EQ(set.step_row(k + 3 * 10), set.step_row(k));
    for (std::size_t v = 0; v < 3; ++v) {
      EXPECT_EQ(set.percent_at(v, k + 7000), set.percent_at(v, k));
    }
  }
}

TEST(TraceSet, StepAtMapsTime) {
  trace::WorkloadModel model;
  Rng rng(9);
  const trace::TraceSource source(std::make_shared<const trace::TraceSet>(
      trace::TraceSet::generate(model, 1, 10, rng)));
  EXPECT_EQ(source.step_at(0.0), 0u);
  EXPECT_EQ(source.step_at(299.9), 0u);
  EXPECT_EQ(source.step_at(300.0), 1u);
  EXPECT_EQ(source.step_at(3000.0), 10u);
  EXPECT_THROW((void)source.step_at(-1.0), std::invalid_argument);
}

TEST(TraceSet, DemandMhzConsistentWithPercent) {
  trace::WorkloadModel model;
  Rng rng(10);
  const auto set = trace::TraceSet::generate(model, 5, 5, rng);
  for (std::size_t v = 0; v < 5; ++v) {
    EXPECT_NEAR(set.demand_mhz_at(v, 2),
                set.percent_at(v, 2) / 100.0 * set.reference_mhz(), 1e-9);
  }
}

TEST(TraceSet, CsvRoundTrip) {
  trace::WorkloadModel model;
  Rng rng(11);
  const auto set = trace::TraceSet::generate(model, 4, 6, rng);
  std::stringstream buffer;
  set.write_csv(buffer);
  const auto loaded = trace::TraceSet::read_csv(buffer);
  EXPECT_EQ(loaded.num_vms(), set.num_vms());
  EXPECT_EQ(loaded.num_steps(), set.num_steps());
  for (std::size_t v = 0; v < set.num_vms(); ++v) {
    EXPECT_NEAR(loaded.average_percent(v), set.average_percent(v), 1e-4);
    for (std::size_t k = 0; k < set.num_steps(); ++k) {
      EXPECT_NEAR(loaded.percent_at(v, k), set.percent_at(v, k), 1e-3);
    }
  }
}

TEST(TraceSet, ReadRejectsMalformed) {
  std::istringstream empty("");
  EXPECT_THROW(trace::TraceSet::read_csv(empty), std::invalid_argument);
  std::istringstream bad_header("1,2\n");
  EXPECT_THROW(trace::TraceSet::read_csv(bad_header), std::invalid_argument);
  // Header: num_vms, num_steps, period, reference; rows: id, avg, ram,
  // samples. Each of these used to crash or be accepted.
  for (const char* text : {
           "1,-1,300,2000\n0,10\n",           // step count wrapped the row check
           "-1,1,300,2000\n",                  // negative VM count
           "1,0,300,2000\n0,10,512\n",        // zero steps: percent_at divided by 0
           "1,1,0,2000\n0,10,512,5\n",        // zero period: step_at divided by 0
           "1,1,-300,2000\n0,10,512,5\n",
           "1,1,nan,2000\n0,10,512,5\n",
           "1,1,inf,2000\n0,10,512,5\n",
           "1,1,300,0\n0,10,512,5\n",
           "1,1,300,nan\n0,10,512,5\n",
           "1,2,300,2000\n0,10,512,5,-40\n",  // samples outside [0,100]
           "1,2,300,2000\n0,10,512,5,250\n",
           "1,1,300,2000\n0,10,512,nan\n",
           "1,1,300,2000\n0,140,512,5\n",     // average outside [0,100]
           "1,1,300,2000\n0,10,-512,5\n",     // negative RAM
           // The header sizes one sample matrix, so it is held against
           // the data before anything is allocated.
           "1,1000000000000,300,2000\n0,10,512,5\n",  // short first row
           "3,1,300,2000\n0,10,512,5\n",              // fewer rows than claimed
           "1,1,300,2000\n0,10,512,5\n1,10,512,5\n", // more rows than claimed
           "1,1,300,2000\n0,10\n",                    // row narrower than id,avg,ram
           "9223372036854775807,9223372036854775807,300,2000\n0,10,512,5\n",
       }) {
    std::istringstream in(text);
    EXPECT_THROW(trace::TraceSet::read_csv(in), std::invalid_argument) << text;
  }
  std::istringstream valid("1,2,300,2000\n0,10,512,0,100\n");
  const auto set = trace::TraceSet::read_csv(valid);
  EXPECT_EQ(set.num_steps(), 2u);
  EXPECT_EQ(set.percent_at(0, 1), 100.0);
}

// The step-major matrix is written in blocks of VMs; with a VM count that
// is not a multiple of the block, every sample must still equal the one
// generate_series draws from the same stream position.
TEST(TraceSet, GenerateEqualsPerVmSeriesBitForBit) {
  trace::WorkloadModel model;
  constexpr std::size_t kVms = 37;
  constexpr std::size_t kSteps = 50;
  Rng rng_a(2718);
  Rng rng_b(2718);
  const auto set = trace::TraceSet::generate(model, kVms, kSteps, rng_a);
  for (std::size_t v = 0; v < kVms; ++v) {
    const double avg = model.sample_average_percent(rng_b);
    const double ram = model.sample_ram_mb(rng_b);
    const std::vector<float> series = model.generate_series(rng_b, avg, kSteps);
    ASSERT_EQ(set.average_percent(v), avg) << "vm " << v;
    ASSERT_EQ(set.ram_mb(v), ram) << "vm " << v;
    for (std::size_t k = 0; k < kSteps; ++k) {
      ASSERT_EQ(set.percent_at(v, k), static_cast<double>(series[k]))
          << "vm " << v << " step " << k;
      ASSERT_EQ(set.step_row(k)[v], series[k]) << "vm " << v << " step " << k;
    }
  }
  EXPECT_EQ(rng_a(), rng_b());
}

TEST(TraceSet, OutOfRangeRowThrows) {
  trace::WorkloadModel model;
  Rng rng(82);
  const auto set = std::make_shared<const trace::TraceSet>(
      trace::TraceSet::generate(model, 4, 6, rng));
  EXPECT_THROW((void)set->percent_at(4, 0), std::out_of_range);
  EXPECT_THROW((void)set->demand_mhz_at(4, 9), std::out_of_range);
  const trace::TraceSource source(set);
  EXPECT_THROW((void)source.demand_mhz(4), std::invalid_argument);
}

TEST(TraceSet, GenerateRejectsAnOverflowingMatrix) {
  trace::WorkloadModel model;
  Rng rng(83);
  const std::size_t huge = std::numeric_limits<std::size_t>::max() / 2;
  EXPECT_THROW(trace::TraceSet::generate(model, huge, 3, rng), std::invalid_argument);
  EXPECT_THROW(trace::TraceSet::generate(model, 0, 3, rng), std::invalid_argument);
  EXPECT_THROW(trace::TraceSet::generate(model, 3, 0, rng), std::invalid_argument);
}

TEST(TraceSet, TotalDemand) {
  trace::WorkloadModel model;
  Rng rng(12);
  const auto set = trace::TraceSet::generate(model, 10, 3, rng);
  double expected = 0.0;
  for (std::size_t v = 0; v < 10; ++v) expected += set.demand_mhz_at(v, 1);
  EXPECT_NEAR(set.total_demand_mhz_at(1), expected, 1e-9);
}

// ------------------------------------------------------------------ arrivals

TEST(PoissonArrivals, HomogeneousRateMatches) {
  trace::PoissonArrivals arrivals([](double) { return 0.1; }, 0.1);
  Rng rng(13);
  double t = 0.0;
  int count = 0;
  while (t < 100000.0) {
    t = arrivals.next_after(t, rng);
    ++count;
  }
  EXPECT_NEAR(count / 100000.0, 0.1, 0.005);
}

TEST(PoissonArrivals, ThinningTracksTimeVaryingRate) {
  // Rate 0.2 in the first half, 0.02 in the second.
  trace::PoissonArrivals arrivals(
      [](double t) { return t < 50000.0 ? 0.2 : 0.02; }, 0.2);
  Rng rng(14);
  double t = 0.0;
  int first = 0, second = 0;
  while (t < 100000.0) {
    t = arrivals.next_after(t, rng);
    if (t < 50000.0) {
      ++first;
    } else if (t < 100000.0) {
      ++second;
    }
  }
  EXPECT_NEAR(first / 50000.0, 0.2, 0.01);
  EXPECT_NEAR(second / 50000.0, 0.02, 0.005);
}

TEST(PoissonArrivals, StrictlyIncreasing) {
  trace::PoissonArrivals arrivals([](double) { return 1.0; }, 1.0);
  Rng rng(15);
  double t = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double next = arrivals.next_after(t, rng);
    EXPECT_GT(next, t);
    t = next;
  }
}

TEST(PoissonArrivals, RejectsRateAboveEnvelope) {
  trace::PoissonArrivals arrivals([](double) { return 2.0; }, 1.0);
  Rng rng(16);
  EXPECT_THROW((void)arrivals.next_after(0.0, rng), std::invalid_argument);
}

TEST(ExponentialLifetime, MeanMatches) {
  Rng rng(17);
  double acc = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) acc += trace::exponential_lifetime(1.0 / 3600.0, rng);
  EXPECT_NEAR(acc / n, 3600.0, 60.0);
}

// ------------------------------------------------------------ rate estimator

TEST(RateEstimator, LambdaPerWindow) {
  trace::RateEstimator est(100.0);
  for (int i = 0; i < 10; ++i) est.record_arrival(i * 10.0);  // window 0
  est.record_arrival(150.0);                                  // window 1
  EXPECT_DOUBLE_EQ(est.lambda(50.0), 0.1);
  EXPECT_DOUBLE_EQ(est.lambda(150.0), 0.01);
  EXPECT_DOUBLE_EQ(est.lambda(1000.0), 0.0);
  EXPECT_DOUBLE_EQ(est.lambda_max(), 0.1);
}

TEST(RateEstimator, NuFromDeparturesAndPopulation) {
  trace::RateEstimator est(100.0);
  // 5 departures in window 0, each seen with population 100:
  // nu = 5 / (100 s * 100 VMs) = 5e-4.
  for (int i = 0; i < 5; ++i) est.record_departure(i * 20.0, 100);
  EXPECT_NEAR(est.nu(50.0), 5e-4, 1e-12);
  EXPECT_DOUBLE_EQ(est.nu(500.0), 0.0);
}

TEST(RateEstimator, FunctionsAreSelfContainedCopies) {
  trace::RateEstimator est(100.0);
  est.record_arrival(10.0);
  const auto fn = est.lambda_fn();
  est.record_arrival(20.0);  // not visible to the captured copy
  EXPECT_DOUBLE_EQ(fn(50.0), 0.01);
  EXPECT_DOUBLE_EQ(est.lambda(50.0), 0.02);
}

TEST(RateEstimator, Validation) {
  EXPECT_THROW(trace::RateEstimator(0.0), std::invalid_argument);
  trace::RateEstimator est(10.0);
  EXPECT_THROW(est.record_arrival(-1.0), std::invalid_argument);
  EXPECT_THROW(est.record_departure(0.0, 0), std::invalid_argument);
}

// -------------------------------------------------------- streaming traces

// 320 five-minute steps cross the 288-step day boundary, so the diurnal
// factor, computed once per step in advance_to, is checked over a full
// period and past it.
TEST(StreamingTraces, BitIdenticalToMaterializedGeneration) {
  trace::WorkloadConfig config;
  trace::WorkloadModel model(config);
  constexpr std::size_t kVms = 40;
  constexpr std::size_t kSteps = 320;

  Rng rng_a(12345);
  Rng rng_b(12345);
  const trace::TraceSet set = trace::TraceSet::generate(model, kVms, kSteps, rng_a);
  trace::StreamingTraces bank =
      trace::StreamingTraces::generate(model, kVms, kSteps, rng_b);

  ASSERT_EQ(bank.num_vms(), set.num_vms());
  ASSERT_EQ(bank.num_steps(), set.num_steps());
  EXPECT_DOUBLE_EQ(bank.sample_period_s(), set.sample_period_s());
  EXPECT_DOUBLE_EQ(bank.reference_mhz(), set.reference_mhz());
  for (std::size_t v = 0; v < kVms; ++v) {
    // Exact equality, not NEAR: the draws and arithmetic must be identical.
    ASSERT_EQ(bank.average_percent(v), set.average_percent(v)) << "vm " << v;
    ASSERT_EQ(bank.ram_mb(v), set.ram_mb(v)) << "vm " << v;
  }
  for (std::size_t k = 0; k < kSteps; ++k) {
    bank.advance_to(k);
    ASSERT_EQ(bank.current_step(), k);
    for (std::size_t v = 0; v < kVms; ++v) {
      ASSERT_EQ(bank.percent_current(v), set.percent_at(v, k))
          << "vm " << v << " step " << k;
      ASSERT_EQ(bank.demand_mhz_current(v), set.demand_mhz_at(v, k))
          << "vm " << v << " step " << k;
    }
  }
  // Both generators must consume the shared stream identically, or the
  // controller/fault draws downstream of trace generation would diverge.
  EXPECT_EQ(rng_a(), rng_b());
}

TEST(StreamingTraces, AdvancePastGapMatchesMaterialized) {
  trace::WorkloadConfig config;
  trace::WorkloadModel model(config);
  Rng rng_a(777);
  Rng rng_b(777);
  const trace::TraceSet set = trace::TraceSet::generate(model, 5, 50, rng_a);
  trace::StreamingTraces bank = trace::StreamingTraces::generate(model, 5, 50, rng_b);
  // Jump straight to a far step: the lazy replay must land on the same
  // values as stepping one at a time (checkpoint fast-forward path).
  bank.advance_to(37);
  for (std::size_t v = 0; v < 5; ++v) {
    ASSERT_EQ(bank.percent_current(v), set.percent_at(v, 37)) << "vm " << v;
  }
}

TEST(StreamingTraces, RejectsRewindAndOverrun) {
  trace::WorkloadConfig config;
  trace::WorkloadModel model(config);
  Rng rng(1);
  trace::StreamingTraces bank = trace::StreamingTraces::generate(model, 3, 10, rng);
  bank.advance_to(4);
  EXPECT_THROW(bank.advance_to(3), std::invalid_argument);
  EXPECT_THROW(bank.advance_to(10), std::invalid_argument);
  EXPECT_NO_THROW(bank.advance_to(4));  // idempotent at the current step
}

TEST(StreamingTraces, GenerateValidation) {
  trace::WorkloadConfig config;
  trace::WorkloadModel model(config);
  Rng rng(1);
  EXPECT_THROW(trace::StreamingTraces::generate(model, 0, 10, rng),
               std::invalid_argument);
  EXPECT_THROW(trace::StreamingTraces::generate(model, 3, 0, rng),
               std::invalid_argument);
}

TEST(StreamingTraces, PartitionedBanksMatchMonolithicGeneration) {
  trace::WorkloadConfig config;
  trace::WorkloadModel model(config);
  constexpr std::size_t kVms = 41;  // not divisible by K: uneven banks
  constexpr std::size_t kSteps = 60;
  constexpr std::size_t kBanks = 4;

  Rng rng_a(4242);
  Rng rng_b(4242);
  trace::StreamingTraces whole =
      trace::StreamingTraces::generate(model, kVms, kSteps, rng_a);
  std::vector<trace::StreamingTraces> banks =
      trace::StreamingTraces::generate_partitioned(model, kVms, kSteps, rng_b,
                                                   kBanks);
  ASSERT_EQ(banks.size(), kBanks);
  // Both generators must consume the shared stream identically, or the
  // controller/fault draws downstream of trace generation would diverge
  // between a sharded streaming run and every other mode.
  EXPECT_EQ(rng_a(), rng_b());

  for (std::size_t v = 0; v < kVms; ++v) {
    trace::StreamingTraces& bank = banks[v % kBanks];
    // num_vms() stays GLOBAL (the TraceDriver validates global indices);
    // residency is per bank, following ShardPlan::shard_of_trace's rule.
    ASSERT_EQ(bank.num_vms(), kVms);
    ASSERT_TRUE(bank.has_row(v));
    EXPECT_FALSE(banks[(v + 1) % kBanks].has_row(v));
    ASSERT_EQ(bank.average_percent(v), whole.average_percent(v)) << "vm " << v;
    ASSERT_EQ(bank.ram_mb(v), whole.ram_mb(v)) << "vm " << v;
  }
  for (const std::size_t step : {std::size_t{1}, std::size_t{17}, kSteps - 1}) {
    whole.advance_to(step);
    for (auto& bank : banks) bank.advance_to(step);
    for (std::size_t v = 0; v < kVms; ++v) {
      ASSERT_EQ(banks[v % kBanks].percent_current(v), whole.percent_current(v))
          << "vm " << v << " step " << step;
    }
  }
}

TEST(StreamingTraces, AdoptedRowTracksItsHomeBankExactly) {
  trace::WorkloadConfig config;
  trace::WorkloadModel model(config);
  Rng rng_a(99);
  Rng rng_b(99);
  trace::StreamingTraces whole =
      trace::StreamingTraces::generate(model, 10, 40, rng_a);
  std::vector<trace::StreamingTraces> banks =
      trace::StreamingTraces::generate_partitioned(model, 10, 40, rng_b, 2);

  // Row 3 lives in bank 1; bank 0 cannot drive it before adoption.
  EXPECT_THROW((void)banks[0].percent_current(3), std::invalid_argument);
  EXPECT_THROW(banks[0].adopt_row(99, banks[1]), std::invalid_argument);

  // Adoption is only exact when both banks sit at the same step.
  banks[1].advance_to(5);
  EXPECT_THROW(banks[0].adopt_row(3, banks[1]), std::invalid_argument);
  banks[0].advance_to(5);
  banks[0].adopt_row(3, banks[1]);
  ASSERT_TRUE(banks[0].has_row(3));
  banks[0].adopt_row(3, banks[1]);  // idempotent no-op

  whole.advance_to(5);
  ASSERT_EQ(banks[0].percent_current(3), whole.percent_current(3));
  // The copy advances independently of its home bank yet reproduces the
  // row bit for bit at every later step — the property the cross-shard
  // hand-off relies on.
  for (std::size_t step = 6; step < 40; ++step) {
    whole.advance_to(step);
    banks[0].advance_to(step);
    banks[1].advance_to(step);
    ASSERT_EQ(banks[0].percent_current(3), whole.percent_current(3)) << step;
    ASSERT_EQ(banks[1].percent_current(3), whole.percent_current(3)) << step;
  }
}

// ------------------------------------------------------------ trace source

TEST(TraceSource, MatrixAndBankYieldTheSameRows) {
  trace::WorkloadModel model;
  constexpr std::size_t kVms = 12;
  constexpr std::size_t kSteps = 30;
  Rng rng_a(2024);
  Rng rng_b(2024);
  trace::TraceSource matrix(std::make_shared<const trace::TraceSet>(
      trace::TraceSet::generate(model, kVms, kSteps, rng_a)));
  trace::TraceSource bank(trace::StreamingTraces::generate(model, kVms, kSteps, rng_b));
  EXPECT_FALSE(matrix.is_streaming());
  EXPECT_TRUE(bank.is_streaming());
  ASSERT_EQ(matrix.num_vms(), bank.num_vms());
  EXPECT_EQ(matrix.sample_period_s(), bank.sample_period_s());
  for (std::size_t v = 0; v < kVms; ++v) EXPECT_EQ(matrix.ram_mb(v), bank.ram_mb(v));
  for (std::size_t k = 0; k < kSteps; k += 7) {
    matrix.advance_to(k);
    bank.advance_to(k);
    for (std::size_t v = 0; v < kVms; ++v) {
      ASSERT_EQ(matrix.demand_mhz(v), bank.demand_mhz(v)) << "vm " << v << " step " << k;
    }
    // The per-sweep reader answers exactly like the per-row accessor.
    for (const trace::TraceSource* source : {&matrix, &bank}) {
      source->visit_rows([&](const auto& rows) {
        for (std::size_t v = 0; v < kVms; ++v) {
          ASSERT_EQ(rows.demand_mhz(v), source->demand_mhz(v));
        }
      });
    }
  }
}

TEST(TraceSource, SharedMatrixKeepsOneStepPerSource) {
  trace::WorkloadModel model;
  Rng rng(31);
  const auto set = std::make_shared<const trace::TraceSet>(
      trace::TraceSet::generate(model, 3, 10, rng));
  trace::TraceSource a(set);
  trace::TraceSource b(set);
  a.advance_to(4);
  EXPECT_EQ(a.demand_mhz(1), set->demand_mhz_at(1, 4));
  EXPECT_EQ(b.demand_mhz(1), set->demand_mhz_at(1, 0));
  // A matrix accepts any step and wraps past its end.
  a.advance_to(13);
  EXPECT_EQ(a.demand_mhz(1), set->demand_mhz_at(1, 3));
  a.advance_to(2);
  EXPECT_EQ(a.demand_mhz(1), set->demand_mhz_at(1, 2));
  // Each source resolves its own current row; the per-sweep reader must
  // index that row, not the other source's.
  for (std::size_t k = 0; k < 30; ++k) {
    const std::size_t ka = k;
    const std::size_t kb = (5 * k + 2) % 20;  // also wraps
    a.advance_to(ka);
    b.advance_to(kb);
    for (const auto& [source, step] : {std::pair{&a, ka}, std::pair{&b, kb}}) {
      source->visit_rows([&](const auto& rows) {
        for (std::size_t v = 0; v < 3; ++v) {
          ASSERT_EQ(rows.demand_mhz(v), set->demand_mhz_at(v, step)) << v << " " << step;
        }
      });
    }
  }
}

TEST(TraceSource, AdoptRowCopiesBankRowsAndIsANoOpOnAMatrix) {
  trace::WorkloadModel model;
  Rng rng_a(5);
  Rng rng_b(5);
  trace::TraceSource matrix(std::make_shared<const trace::TraceSet>(
      trace::TraceSet::generate(model, 6, 20, rng_a)));
  std::vector<trace::StreamingTraces> parts =
      trace::StreamingTraces::generate_partitioned(model, 6, 20, rng_b, 2);
  trace::TraceSource bank0(std::move(parts[0]));
  trace::TraceSource bank1(std::move(parts[1]));

  EXPECT_NO_THROW(matrix.adopt_row(1, bank1));  // every row is resident
  EXPECT_THROW(bank0.adopt_row(1, matrix), std::invalid_argument);
  EXPECT_THROW((void)bank0.demand_mhz(1), std::invalid_argument);
  bank0.adopt_row(1, bank1);
  for (std::size_t k = 1; k < 20; ++k) {
    matrix.advance_to(k);
    bank0.advance_to(k);
    ASSERT_EQ(bank0.demand_mhz(1), matrix.demand_mhz(1)) << "step " << k;
  }
}
