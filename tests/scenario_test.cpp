// Tests for the scenario harness itself (fleet building, warm-up handling,
// message accounting, centralized-algorithm wiring).

#include <gtest/gtest.h>

#include "ecocloud/scenario/scenario.hpp"

using namespace ecocloud;

TEST(Fleet, BuildsRoundRobinMix) {
  dc::DataCenter d;
  scenario::FleetConfig fleet;
  fleet.num_servers = 7;
  fleet.core_mix = {4, 6, 8};
  fleet.core_mhz = 2000.0;
  scenario::build_fleet(d, fleet);
  ASSERT_EQ(d.num_servers(), 7u);
  EXPECT_EQ(d.server(0).num_cores(), 4u);
  EXPECT_EQ(d.server(1).num_cores(), 6u);
  EXPECT_EQ(d.server(2).num_cores(), 8u);
  EXPECT_EQ(d.server(3).num_cores(), 4u);
  EXPECT_EQ(d.server(6).num_cores(), 4u);
  // All hibernated initially.
  EXPECT_EQ(d.active_server_count(), 0u);
  // RAM scales with cores.
  EXPECT_DOUBLE_EQ(d.server(2).ram_capacity_mb(), 8 * fleet.ram_per_core_mb);
}

TEST(Fleet, PaperMixCapacity) {
  dc::DataCenter d;
  scenario::build_fleet(d, scenario::FleetConfig{});
  // 400 servers round-robin over {4,6,8} cores at 2 GHz: 134+133+133
  // servers -> 2,398 cores -> 4.796e6 MHz.
  EXPECT_EQ(d.num_servers(), 400u);
  EXPECT_DOUBLE_EQ(d.total_capacity_mhz(), 2398.0 * 2000.0);
}

TEST(DailyScenarioHarness, WarmupResetsAccounting) {
  scenario::DailyConfig config;
  config.fleet.num_servers = 30;
  config.num_vms = 400;
  config.warmup_s = 2.0 * sim::kHour;
  config.horizon_s = 4.0 * sim::kHour;
  scenario::DailyScenario daily(config);
  daily.run();
  const auto& d = daily.datacenter();
  // Accounting covers only the 2 post-warm-up hours.
  EXPECT_NEAR(d.vm_seconds(), 400.0 * 2.0 * sim::kHour, 400.0 * 60.0);
  // The first post-warm-up metrics window must not be negative (rebase).
  for (const auto& s : daily.collector().samples()) {
    EXPECT_GE(s.window_energy_j, 0.0) << "t=" << s.time;
    EXPECT_GE(s.overload_percent, 0.0) << "t=" << s.time;
  }
}

TEST(DailyScenarioHarness, MessageLogAccumulates) {
  scenario::DailyConfig config;
  config.fleet.num_servers = 30;
  config.num_vms = 400;
  config.horizon_s = 2.0 * sim::kHour;
  scenario::DailyScenario daily(config);
  daily.run();
  const core::MessageLog& messages = daily.ecocloud()->messages();
  // Every VM needed at least one invitation round and one placement.
  EXPECT_GE(messages.invitation_rounds, 400u);
  EXPECT_GE(messages.placement_commands, 400u);
  EXPECT_GT(messages.wake_commands, 0u);  // empty DC at start
  EXPECT_EQ(messages.total(),
            messages.invitations_sent + messages.volunteer_replies +
                messages.placement_commands + messages.wake_commands +
                messages.migration_commands);
}

TEST(DailyScenarioHarness, GroupInvitationsReduceTraffic) {
  auto make = [](std::size_t group) {
    scenario::DailyConfig config;
    config.fleet.num_servers = 40;
    config.num_vms = 600;
    config.horizon_s = 3.0 * sim::kHour;
    config.params.invite_group_size = group;
    return config;
  };
  scenario::DailyScenario broadcast(make(0));
  scenario::DailyScenario grouped(make(8));
  broadcast.run();
  grouped.run();
  const double broadcast_per_round =
      static_cast<double>(broadcast.ecocloud()->messages().invitations_sent) /
      static_cast<double>(broadcast.ecocloud()->messages().invitation_rounds);
  const double grouped_per_round =
      static_cast<double>(grouped.ecocloud()->messages().invitations_sent) /
      static_cast<double>(grouped.ecocloud()->messages().invitation_rounds);
  EXPECT_LE(grouped_per_round, 8.0 + 1e-9);
  EXPECT_GT(broadcast_per_round, grouped_per_round);
}

TEST(DailyScenarioHarness, MaxInflightTracked) {
  scenario::DailyConfig config;
  config.fleet.num_servers = 40;
  config.num_vms = 600;
  config.warmup_s = sim::kHour;
  config.horizon_s = 6.0 * sim::kHour;
  scenario::DailyScenario daily(config);
  daily.run();
  const auto& d = daily.datacenter();
  if (d.total_migrations() > 0) {
    EXPECT_GE(d.max_inflight_migrations(), 1u);
  }
  EXPECT_LE(d.inflight_migrations(), d.max_inflight_migrations());
}

TEST(CentralizedScenario, ConsolidatesSameWorkload) {
  scenario::DailyConfig config;
  config.fleet.num_servers = 30;
  config.num_vms = 400;
  config.horizon_s = 6.0 * sim::kHour;
  baseline::CentralizedParams central;
  scenario::DailyScenario daily(config, scenario::Algorithm::kCentralized, central);
  daily.run();
  EXPECT_EQ(daily.datacenter().placed_vm_count(), 400u);
  EXPECT_LT(daily.datacenter().active_server_count(), 30u);
  EXPECT_EQ(daily.ecocloud(), nullptr);
  EXPECT_NE(daily.centralized(), nullptr);
}

TEST(ConsolidationScenarioHarness, LambdaTracksDiurnal) {
  scenario::ConsolidationConfig config;
  scenario::ConsolidationScenario cons(config);
  const double lambda_peak = cons.lambda(14.0 * sim::kHour);
  const double lambda_trough = cons.lambda(2.0 * sim::kHour);
  EXPECT_GT(lambda_peak, lambda_trough);
  EXPECT_NEAR(lambda_peak / lambda_trough,
              config.workload.diurnal.max() / config.workload.diurnal.min(), 1e-9);
  EXPECT_DOUBLE_EQ(cons.nu(), 1.0 / config.mean_lifetime_s);
}

TEST(ConsolidationScenarioHarness, MeanVmShareConsistent) {
  scenario::ConsolidationConfig config;
  scenario::ConsolidationScenario cons(config);
  // mean share = mean demand / server capacity, with the scenario's 1600
  // MHz reference and 6 x 2 GHz servers.
  const double expected = trace::WorkloadModel::expected_average_percent() / 100.0 *
                          1600.0 / 12000.0;
  EXPECT_NEAR(cons.mean_vm_share(), expected, 1e-12);
}

TEST(StaticScenario, NoConsolidationBaseline) {
  scenario::DailyConfig config;
  config.fleet.num_servers = 20;
  config.num_vms = 200;
  config.horizon_s = 2.0 * sim::kHour;
  scenario::DailyScenario daily(config, scenario::Algorithm::kStatic);
  daily.run();
  const auto& d = daily.datacenter();
  // Everything active, round-robin spread, nothing moves.
  EXPECT_EQ(d.active_server_count(), 20u);
  EXPECT_EQ(d.placed_vm_count(), 200u);
  EXPECT_EQ(d.total_migrations(), 0u);
  EXPECT_EQ(d.total_hibernations(), 0u);
  for (const auto& server : d.servers()) {
    EXPECT_EQ(server.vm_count(), 10u);
  }
}

TEST(StaticScenario, UsesMoreEnergyThanEcoCloud) {
  auto make = [](scenario::Algorithm algorithm) {
    scenario::DailyConfig config;
    config.fleet.num_servers = 30;
    config.num_vms = 400;
    config.horizon_s = 6.0 * sim::kHour;
    config.seed = 5;
    return scenario::DailyScenario(config, algorithm);
  };
  auto eco = make(scenario::Algorithm::kEcoCloud);
  auto flat = make(scenario::Algorithm::kStatic);
  eco.run();
  flat.run();
  EXPECT_LT(eco.datacenter().energy_joules(),
            0.8 * flat.datacenter().energy_joules());
}

TEST(ExternalTraces, DriveTheDailyScenario) {
  // Two flat traces: one large VM, one small, for 3 hours.
  std::vector<std::vector<float>> series{
      std::vector<float>(38, 40.0f),  // 800 MHz at 2 GHz reference
      std::vector<float>(38, 10.0f),  // 200 MHz
  };
  auto traces = trace::TraceSet::from_series(series, 300.0, 2000.0, 512.0);

  scenario::DailyConfig config;
  config.fleet.num_servers = 4;
  config.num_vms = 999;  // overridden by the trace count
  config.horizon_s = 3.0 * sim::kHour;
  scenario::DailyScenario daily(config, std::move(traces));
  daily.run();
  const auto& d = daily.datacenter();
  EXPECT_EQ(d.num_vms(), 2u);
  EXPECT_EQ(d.placed_vm_count(), 2u);
  // Constant demands: total demand equals the sum of the two traces.
  EXPECT_NEAR(d.total_demand_mhz(), 1000.0, 1e-6);
}

TEST(ExternalTraces, ShorterThanHorizonReplayWrapped) {
  // A 4-sample (20-minute) log replayed over 2 hours: the trace driver
  // wraps around (TraceSet::percent_at), so one log length L later the
  // demand repeats — at t = L + 5 min it equals the demand at 5 min.
  const std::vector<std::vector<float>> series{{10.0f, 20.0f, 30.0f, 40.0f},
                                               {50.0f, 5.0f, 25.0f, 15.0f}};
  constexpr sim::SimTime kPeriod = 300.0;
  constexpr sim::SimTime kLog = 4 * kPeriod;
  scenario::DailyConfig config;
  config.fleet.num_servers = 4;
  config.horizon_s = 2.0 * sim::kHour;
  scenario::DailyScenario daily(
      config, trace::TraceSet::from_series(series, kPeriod, 2000.0, 512.0));
  daily.start();
  // Demand of both VMs just after the tick at \p t.
  const auto demands_at = [&daily](sim::SimTime t) {
    daily.run_slice(t + 1.0);
    const auto& d = daily.datacenter();
    return std::vector<double>{d.vm(0).demand_mhz, d.vm(1).demand_mhz};
  };
  const std::vector<double> at_5min = demands_at(kPeriod);
  EXPECT_EQ(at_5min, (std::vector<double>{400.0, 100.0}));
  EXPECT_EQ(demands_at(kLog), (std::vector<double>{200.0, 1000.0}));
  EXPECT_EQ(demands_at(kLog + kPeriod), at_5min);
  EXPECT_EQ(demands_at(3 * kLog + kPeriod), at_5min);
}
