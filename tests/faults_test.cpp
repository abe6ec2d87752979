// Tests for the fault-injection subsystem: fault schedules, the seeded
// fault model, orphan redeployment, crash recovery end to end, and the
// hard guarantee that disabled faults leave the simulation untouched.

#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#include "ecocloud/faults/fault_injector.hpp"
#include "ecocloud/faults/fault_model.hpp"
#include "ecocloud/faults/recovery.hpp"
#include "ecocloud/metrics/episode_summary.hpp"
#include "ecocloud/scenario/config_io.hpp"
#include "ecocloud/scenario/scenario.hpp"

using namespace ecocloud;
using ecocloud::util::Rng;

// --- Fault schedule parsing --------------------------------------------------

TEST(FaultSchedule, ParsesEntries) {
  const auto schedule =
      faults::parse_fault_schedule("crash 10-20 3600 600, crash 5 7200, repair 10-20 10800");
  ASSERT_EQ(schedule.size(), 3u);
  EXPECT_EQ(schedule[0].kind, faults::ScriptedFault::Kind::kCrash);
  EXPECT_EQ(schedule[0].first, 10u);
  EXPECT_EQ(schedule[0].last, 20u);
  EXPECT_DOUBLE_EQ(schedule[0].time, 3600.0);
  EXPECT_DOUBLE_EQ(schedule[0].repair_after_s, 600.0);
  EXPECT_EQ(schedule[1].first, 5u);
  EXPECT_EQ(schedule[1].last, 5u);
  EXPECT_LT(schedule[1].repair_after_s, 0.0);  // stochastic repair
  EXPECT_EQ(schedule[2].kind, faults::ScriptedFault::Kind::kRepair);
}

TEST(FaultSchedule, RoundTripsThroughToString) {
  const std::string text = "crash 10-20 3600 600, crash 5 7200, repair 10-20 10800";
  const auto schedule = faults::parse_fault_schedule(text);
  const auto reparsed = faults::parse_fault_schedule(faults::to_string(schedule));
  ASSERT_EQ(reparsed.size(), schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(reparsed[i].kind, schedule[i].kind);
    EXPECT_EQ(reparsed[i].first, schedule[i].first);
    EXPECT_EQ(reparsed[i].last, schedule[i].last);
    EXPECT_DOUBLE_EQ(reparsed[i].time, schedule[i].time);
    EXPECT_DOUBLE_EQ(reparsed[i].repair_after_s, schedule[i].repair_after_s);
  }
}

TEST(FaultSchedule, RejectsMalformed) {
  EXPECT_THROW(faults::parse_fault_schedule("explode 3 100"), std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_schedule("crash 3"), std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_schedule("crash 20-10 100"), std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_schedule("crash x 100"), std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_schedule("repair 3 100 extra"),
               std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_schedule("crash 3 -5"), std::invalid_argument);
}

// --- FaultParams -------------------------------------------------------------

TEST(FaultParams, DisabledByDefault) {
  faults::FaultParams params;
  EXPECT_FALSE(params.enabled());
  params.validate();  // defaults are valid
}

TEST(FaultParams, AnyProcessEnables) {
  {
    faults::FaultParams p;
    p.server_mtbf_s = 3600.0;
    EXPECT_TRUE(p.enabled());
  }
  {
    faults::FaultParams p;
    p.migration_abort_prob = 0.1;
    EXPECT_TRUE(p.enabled());
  }
  {
    faults::FaultParams p;
    p.invitation_loss_prob = 0.1;
    EXPECT_TRUE(p.enabled());
  }
  {
    faults::FaultParams p;
    p.schedule = faults::parse_fault_schedule("crash 0 60");
    EXPECT_TRUE(p.enabled());
  }
}

TEST(FaultParams, ValidateRejectsBadValues) {
  {
    faults::FaultParams p;
    p.migration_abort_prob = 1.5;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    faults::FaultParams p;
    p.boot_failure_prob = -0.1;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    faults::FaultParams p;
    p.server_mtbf_s = std::numeric_limits<double>::infinity();
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    faults::FaultParams p;
    p.server_mtbf_s = 3600.0;
    p.server_mttr_s = 0.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    faults::FaultParams p;
    p.redeploy_backoff_s = -1.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
}

// --- FaultModel --------------------------------------------------------------

TEST(FaultModel, DeterministicPerSeed) {
  faults::FaultParams params;
  params.server_mtbf_s = 3600.0;
  params.migration_abort_prob = 0.3;
  faults::FaultModel a(params, Rng(42));
  faults::FaultModel b(params, Rng(42));
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.time_to_failure(), b.time_to_failure());
    EXPECT_EQ(a.migration_aborts(), b.migration_aborts());
  }
}

TEST(FaultModel, ZeroProbabilityHooksStayEmpty) {
  faults::FaultParams params;  // everything off
  faults::FaultModel model(params, Rng(1));
  const core::FaultHooks hooks = model.make_hooks();
  EXPECT_FALSE(static_cast<bool>(hooks.drop_invitation));
  EXPECT_FALSE(static_cast<bool>(hooks.drop_reply));
  EXPECT_FALSE(static_cast<bool>(hooks.boot_fails));
  EXPECT_FALSE(static_cast<bool>(hooks.migration_aborts));
  // Without message loss the manager never repeats a silent round.
  EXPECT_EQ(hooks.max_invite_rounds, 1u);
}

TEST(FaultModel, LossyControlPlaneEnablesRetryRounds) {
  faults::FaultParams params;
  params.reply_loss_prob = 0.2;
  params.max_invite_rounds = 4;
  faults::FaultModel model(params, Rng(1));
  const core::FaultHooks hooks = model.make_hooks();
  EXPECT_FALSE(static_cast<bool>(hooks.drop_invitation));  // prob 0 stays empty
  EXPECT_TRUE(static_cast<bool>(hooks.drop_reply));
  EXPECT_EQ(hooks.max_invite_rounds, 4u);
}

// --- RedeployQueue -----------------------------------------------------------

namespace {

/// One active server filled to the brim (nobody volunteers, nothing left
/// to wake): the queue's worst case.
struct SaturatedFixture {
  sim::Simulator simulator;
  dc::DataCenter datacenter;
  core::EcoCloudParams params;
  faults::FaultParams fault_params;
  metrics::ResilienceStats stats;
  std::unique_ptr<core::EcoCloudController> controller;
  std::unique_ptr<faults::RedeployQueue> queue;
  dc::VmId orphan = dc::kNoVm;

  void build(bool with_spare_server) {
    const auto full = datacenter.add_server(6, 2000.0);
    if (with_spare_server) datacenter.add_server(6, 2000.0);  // hibernated
    fault_params.redeploy_delay_s = 10.0;
    fault_params.redeploy_backoff_s = 5.0;
    fault_params.redeploy_backoff_max_s = 40.0;
    fault_params.redeploy_max_attempts = 3;
    controller = std::make_unique<core::EcoCloudController>(simulator, datacenter,
                                                            params, Rng(5));
    controller->force_activate(full);
    const auto filler = datacenter.create_vm(6 * 2000.0);  // u = 1: fa = 0
    datacenter.place_vm(0.0, filler, full);
    queue = std::make_unique<faults::RedeployQueue>(simulator, *controller,
                                                    fault_params, stats);
    orphan = datacenter.create_vm(500.0);
  }
};

}  // namespace

TEST(RedeployQueue, RetriesWithBackoffThenAbandons) {
  SaturatedFixture f;
  f.build(/*with_spare_server=*/false);
  f.queue->add(f.orphan);
  EXPECT_EQ(f.queue->pending(), 1u);
  // Attempts at t = 10, 10+5, 15+10; the third failure exhausts the policy.
  f.simulator.run();
  EXPECT_EQ(f.queue->pending(), 0u);
  EXPECT_EQ(f.stats.abandoned_vms(), 1u);
  EXPECT_EQ(f.stats.redeployed_vms(), 0u);
  EXPECT_DOUBLE_EQ(f.stats.downtime_vm_seconds(), 25.0);
  EXPECT_DOUBLE_EQ(f.simulator.now(), 25.0);
  EXPECT_FALSE(f.datacenter.vm(f.orphan).placed());
}

TEST(RedeployQueue, RecordsLatencyOnSuccess) {
  SaturatedFixture f;
  f.build(/*with_spare_server=*/true);
  f.queue->add(f.orphan);
  f.simulator.run_until(sim::kHour);
  // The first attempt (after the detection delay) wakes the spare server.
  EXPECT_EQ(f.queue->pending(), 0u);
  EXPECT_EQ(f.stats.redeployed_vms(), 1u);
  EXPECT_EQ(f.stats.abandoned_vms(), 0u);
  EXPECT_DOUBLE_EQ(f.stats.downtime_vm_seconds(), 10.0);
  EXPECT_DOUBLE_EQ(f.stats.redeploy_latency().mean(), 10.0);
  EXPECT_TRUE(f.datacenter.vm(f.orphan).placed());
}

TEST(RedeployQueue, ForgetClosesOpenDowntime) {
  SaturatedFixture f;
  f.build(/*with_spare_server=*/false);
  f.queue->add(f.orphan);
  f.simulator.run_until(4.0);  // before the first attempt
  f.queue->forget(f.orphan);
  EXPECT_EQ(f.queue->pending(), 0u);
  EXPECT_DOUBLE_EQ(f.stats.downtime_vm_seconds(), 4.0);
  // The cancelled retry never fires.
  f.simulator.run();
  EXPECT_EQ(f.stats.abandoned_vms(), 0u);
  EXPECT_EQ(f.stats.redeployed_vms(), 0u);
}

TEST(RedeployQueue, FinalizeClosesSurvivors) {
  SaturatedFixture f;
  f.build(/*with_spare_server=*/false);
  f.queue->add(f.orphan);
  f.simulator.run_until(7.0);
  f.queue->finalize(7.0);
  EXPECT_EQ(f.queue->pending(), 0u);
  EXPECT_DOUBLE_EQ(f.stats.downtime_vm_seconds(), 7.0);
}

TEST(RedeployQueue, RejectsDoubleAdd) {
  SaturatedFixture f;
  f.build(/*with_spare_server=*/false);
  f.queue->add(f.orphan);
  EXPECT_THROW(f.queue->add(f.orphan), std::invalid_argument);
}

// --- Crash recovery end to end ----------------------------------------------

namespace {

scenario::DailyConfig small_daily() {
  scenario::DailyConfig config;
  config.fleet.num_servers = 40;
  config.num_vms = 500;
  config.horizon_s = 12.0 * sim::kHour;
  config.seed = 77;
  return config;
}

}  // namespace

TEST(FaultInjection, ScriptedCrashRecoveryIntegration) {
  scenario::DailyConfig config = small_daily();
  // Kill half the fleet four hours in; every machine is back 30 min later.
  config.faults.schedule = faults::parse_fault_schedule("crash 0-19 14400 1800");
  scenario::DailyScenario daily(config);
  daily.run();

  faults::FaultInjector* injector = daily.fault_injector();
  ASSERT_NE(injector, nullptr);
  const metrics::ResilienceStats& r = injector->stats();
  EXPECT_GT(r.crashes(), 0u);
  EXPECT_EQ(r.repairs(), r.crashes());
  // Half the fleet hosted VMs, so the crash orphaned some, and with the
  // surviving half plus repairs there is room to bring them all back.
  EXPECT_GT(r.orphaned_vms(), 0u);
  EXPECT_EQ(r.redeployed_vms(), r.orphaned_vms());
  EXPECT_EQ(r.abandoned_vms(), 0u);
  // Every redeploy costs at least the detection-and-restart delay.
  EXPECT_GE(r.redeploy_latency().min(),
            config.faults.redeploy_delay_s);
  EXPECT_GE(r.downtime_vm_seconds(),
            static_cast<double>(r.redeployed_vms()) * config.faults.redeploy_delay_s);
  EXPECT_LT(injector->availability(), 1.0);
  EXPECT_GT(injector->availability(), 0.99);
  // All repaired by the horizon; the fleet is whole again.
  EXPECT_EQ(daily.datacenter().failed_server_count(), 0u);
  EXPECT_EQ(daily.datacenter().total_failures(), r.crashes());
}

TEST(FaultInjection, RandomCrashesDegradeAvailabilityGracefully) {
  scenario::DailyConfig config = small_daily();
  config.faults.server_mtbf_s = 6.0 * sim::kHour;
  config.faults.server_mttr_s = 900.0;
  scenario::DailyScenario daily(config);
  daily.run();

  faults::FaultInjector* injector = daily.fault_injector();
  ASSERT_NE(injector, nullptr);
  const metrics::ResilienceStats& r = injector->stats();
  EXPECT_GT(r.crashes(), 0u);
  EXPECT_GT(r.orphaned_vms(), 0u);
  EXPECT_LT(injector->availability(), 1.0);
  EXPECT_GT(injector->availability(), 0.9);
  // The renewal process only crashes powered servers, so the crash count
  // stays within an order of magnitude of horizon / MTBF per server.
  EXPECT_LT(r.crashes(), 400u);
}

TEST(FaultInjection, SameSeedSameFaultSequence) {
  auto run = [] {
    scenario::DailyConfig config = small_daily();
    config.horizon_s = 6.0 * sim::kHour;
    config.faults.server_mtbf_s = 4.0 * sim::kHour;
    scenario::DailyScenario daily(config);
    daily.run();
    const metrics::ResilienceStats& r = daily.fault_injector()->stats();
    return std::tuple{r.crashes(), r.orphaned_vms(), r.redeployed_vms(),
                      r.downtime_vm_seconds(),
                      daily.datacenter().energy_joules()};
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultInjection, MessageLossCostsTrafficNotAvailability) {
  scenario::DailyConfig config = small_daily();
  config.horizon_s = 4.0 * sim::kHour;
  config.faults.invitation_loss_prob = 0.2;
  config.faults.reply_loss_prob = 0.1;
  scenario::DailyScenario daily(config);
  daily.run();

  const core::MessageLog& messages = daily.ecocloud()->messages();
  EXPECT_GT(messages.invitations_lost, 0u);
  EXPECT_GT(messages.replies_lost, 0u);
  // No crashes: nothing is ever down.
  EXPECT_EQ(daily.fault_injector()->stats().crashes(), 0u);
  EXPECT_DOUBLE_EQ(daily.fault_injector()->availability(), 1.0);
}

TEST(FaultInjection, CertainMigrationAbortMeansNoneComplete) {
  scenario::DailyConfig config = small_daily();
  config.horizon_s = 4.0 * sim::kHour;
  config.faults.migration_abort_prob = 1.0;
  scenario::DailyScenario daily(config);
  daily.run();

  EXPECT_GT(daily.ecocloud()->aborted_migrations(), 0u);
  EXPECT_EQ(daily.ecocloud()->low_migrations(), 0u);
  EXPECT_EQ(daily.ecocloud()->high_migrations(), 0u);
  EXPECT_EQ(daily.datacenter().total_migrations(), 0u);
}

TEST(FaultInjection, ManualCrashStaysDownUntilRepaired) {
  scenario::DailyConfig config = small_daily();
  config.horizon_s = sim::kHour;
  // Enable the injector without any stochastic process.
  config.faults.schedule = faults::parse_fault_schedule("crash 39 999999");
  scenario::DailyScenario daily(config);
  daily.run();

  faults::FaultInjector* injector = daily.fault_injector();
  ASSERT_NE(injector, nullptr);
  dc::DataCenter& d = daily.datacenter();
  // Find a powered server to kill by hand.
  dc::ServerId victim = dc::kNoServer;
  for (dc::ServerId s = 0; s < static_cast<dc::ServerId>(d.num_servers()); ++s) {
    if (d.server(s).active()) {
      victim = s;
      break;
    }
  }
  ASSERT_NE(victim, dc::kNoServer);
  injector->crash_server(victim);
  EXPECT_TRUE(d.server(victim).failed());
  injector->repair_server(victim);
  EXPECT_TRUE(d.server(victim).hibernated());
  EXPECT_EQ(injector->stats().crashes(), 1u);
  EXPECT_EQ(injector->stats().repairs(), 1u);
}

// --- Faults off: the simulation must not change ------------------------------

TEST(FaultsOff, NoInjectorIsCreated) {
  scenario::DailyConfig config = small_daily();
  config.horizon_s = sim::kHour;
  ASSERT_FALSE(config.faults.enabled());
  scenario::DailyScenario daily(config);
  daily.run();
  EXPECT_EQ(daily.fault_injector(), nullptr);
}

// Fixed-seed 48 h regression: with every fault knob at zero the run must
// reproduce the pre-faults build bit for bit. The reference figures were
// captured from the seed revision (60 servers, 900 VMs, seed 20130520);
// any drift here means a fault-free code path changed behavior. The
// episode figures alone were re-pinned since: episodes follow each
// server's state after a whole trace tick, not its mid-tick states.
TEST(FaultsOff, RegressionMatchesFaultFreeBuildExactly) {
  scenario::DailyConfig config;
  config.fleet.num_servers = 60;
  config.num_vms = 900;
  config.horizon_s = 48.0 * sim::kHour;
  config.seed = 20130520;
  scenario::DailyScenario daily(config);
  daily.run();

  const dc::DataCenter& d = daily.datacenter();
  const auto episodes = metrics::summarize_episodes(d.overload_episodes());
  EXPECT_EQ(d.energy_joules(), 1079811499.5992701);
  EXPECT_EQ(d.vm_seconds(), 155411999.99999994);
  EXPECT_EQ(d.overload_vm_seconds(), 106104.83333333278);
  EXPECT_EQ(episodes.count, 24u);
  EXPECT_EQ(episodes.mean_duration_s, 107.63888888888816);
  EXPECT_EQ(episodes.max_duration_s, 1094.0);
  EXPECT_EQ(d.total_migrations(), 939u);
  EXPECT_EQ(daily.ecocloud()->low_migrations(), 270u);
  EXPECT_EQ(daily.ecocloud()->high_migrations(), 669u);
  EXPECT_EQ(d.total_activations(), 48u);
  EXPECT_EQ(d.total_hibernations(), 19u);
  EXPECT_EQ(daily.ecocloud()->wake_ups(), 48u);
  EXPECT_EQ(daily.ecocloud()->messages().total(), 35285u);
  EXPECT_EQ(daily.simulator().executed_events(), 1038961u);
}
