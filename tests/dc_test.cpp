// Unit tests for the data-center model: servers, power, placement state,
// exact energy/overload accounting.

#include <gtest/gtest.h>

#include "ecocloud/dc/datacenter.hpp"

namespace dc = ecocloud::dc;

namespace {

dc::DataCenter make_dc() {
  return dc::DataCenter(dc::PowerModel(0.70, 3.0, 20.0, 100.0));
}

}  // namespace

// -------------------------------------------------------------------- server

TEST(Server, CapacityAndUtilization) {
  dc::ServerSoA s_soa;
  dc::Server s = s_soa.add(4, 2000.0);
  EXPECT_DOUBLE_EQ(s.capacity_mhz(), 8000.0);
  EXPECT_DOUBLE_EQ(s.utilization(), 0.0);
  s.host_vm(0, 2000.0, 0.0);
  EXPECT_DOUBLE_EQ(s.utilization(), 0.25);
  EXPECT_DOUBLE_EQ(s.demand_ratio(), 0.25);
}

TEST(Server, UtilizationClampsAtOneButRatioDoesNot) {
  dc::ServerSoA s_soa;
  dc::Server s = s_soa.add(2, 1000.0);
  s.host_vm(0, 3000.0, 0.0);
  EXPECT_DOUBLE_EQ(s.utilization(), 1.0);
  EXPECT_DOUBLE_EQ(s.demand_ratio(), 1.5);
  EXPECT_TRUE(s.overloaded());
  EXPECT_NEAR(s.granted_fraction(), 2.0 / 3.0, 1e-12);
}

TEST(Server, DecisionUtilizationIncludesReservations) {
  dc::ServerSoA s_soa;
  dc::Server s = s_soa.add(4, 2000.0);
  s.host_vm(0, 2000.0, 0.0);
  s.add_reservation(2000.0);
  EXPECT_DOUBLE_EQ(s.decision_utilization(), 0.5);
  s.remove_reservation(2000.0);
  EXPECT_DOUBLE_EQ(s.decision_utilization(), 0.25);
}

TEST(Server, UnhostRemovesCorrectVm) {
  dc::ServerSoA s_soa;
  dc::Server s = s_soa.add(4, 2000.0);
  s.host_vm(7, 100.0, 0.0);
  s.host_vm(8, 200.0, 0.0);
  s.unhost_vm(7, 100.0, 0.0);
  ASSERT_EQ(s.vm_count(), 1u);
  EXPECT_EQ(s.vms()[0], 8u);
  EXPECT_DOUBLE_EQ(s.demand_mhz(), 200.0);
  s.unhost_vm(8, 200.0, 0.0);
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.demand_mhz(), 0.0);
}

TEST(Server, GraceWindow) {
  dc::ServerSoA s_soa;
  dc::Server s = s_soa.add(4, 2000.0);
  EXPECT_FALSE(s.in_grace(0.0));
  s.set_grace_until(100.0);
  EXPECT_TRUE(s.in_grace(99.0));
  EXPECT_FALSE(s.in_grace(100.0));
}

TEST(Server, RejectsBadConstruction) {
  dc::ServerSoA soa;
  EXPECT_THROW(soa.add(0, 2000.0), std::invalid_argument);
  EXPECT_THROW(soa.add(4, 0.0), std::invalid_argument);
  EXPECT_THROW(soa.add(4, 2000.0, -1.0), std::invalid_argument);
}

TEST(Server, StateToString) {
  EXPECT_STREQ(dc::to_string(dc::ServerState::kHibernated), "hibernated");
  EXPECT_STREQ(dc::to_string(dc::ServerState::kBooting), "booting");
  EXPECT_STREQ(dc::to_string(dc::ServerState::kActive), "active");
}

// --------------------------------------------------------------------- power

TEST(PowerModel, PeakAndIdle) {
  dc::PowerModel pm(0.70, 3.0, 20.0, 100.0);
  EXPECT_DOUBLE_EQ(pm.peak_w(6), 220.0);
  EXPECT_DOUBLE_EQ(pm.idle_w(6), 154.0);
}

TEST(PowerModel, LinearInUtilization) {
  dc::PowerModel pm(0.70, 3.0, 20.0, 100.0);
  EXPECT_DOUBLE_EQ(pm.active_power_w(6, 0.0), 154.0);
  EXPECT_DOUBLE_EQ(pm.active_power_w(6, 1.0), 220.0);
  EXPECT_DOUBLE_EQ(pm.active_power_w(6, 0.5), 187.0);
  // Overload clamps at peak.
  EXPECT_DOUBLE_EQ(pm.active_power_w(6, 1.5), 220.0);
}

TEST(PowerModel, PerStatePower) {
  dc::PowerModel pm(0.70, 3.0, 20.0, 100.0);
  dc::ServerSoA s_soa;
  dc::Server s = s_soa.add(6, 2000.0);
  EXPECT_DOUBLE_EQ(pm.power_w(s), 3.0);  // hibernated
  s.set_state(dc::ServerState::kBooting);
  EXPECT_DOUBLE_EQ(pm.power_w(s), 220.0);
  s.set_state(dc::ServerState::kActive);
  EXPECT_DOUBLE_EQ(pm.power_w(s), 154.0);
}

TEST(PowerModel, RejectsBadParameters) {
  EXPECT_THROW(dc::PowerModel(1.5), std::invalid_argument);
  EXPECT_THROW(dc::PowerModel(0.7, -1.0), std::invalid_argument);
}

// ---------------------------------------------------------------- datacenter

TEST(DataCenter, PlacementLifecycle) {
  auto d = make_dc();
  const auto s = d.add_server(4, 2000.0);
  const auto v = d.create_vm(1000.0);
  d.start_booting(0.0, s);
  d.finish_booting(0.0, s);
  d.place_vm(0.0, v, s);
  EXPECT_EQ(d.vm(v).host, s);
  EXPECT_EQ(d.placed_vm_count(), 1u);
  EXPECT_DOUBLE_EQ(d.total_demand_mhz(), 1000.0);
  d.unplace_vm(1.0, v);
  EXPECT_FALSE(d.vm(v).placed());
  EXPECT_DOUBLE_EQ(d.total_demand_mhz(), 0.0);
}

TEST(DataCenter, CannotPlaceOnInactiveServer) {
  auto d = make_dc();
  const auto s = d.add_server(4, 2000.0);
  const auto v = d.create_vm(100.0);
  EXPECT_THROW(d.place_vm(0.0, v, s), std::invalid_argument);
  d.start_booting(0.0, s);
  EXPECT_THROW(d.place_vm(0.0, v, s), std::invalid_argument);
}

TEST(DataCenter, StateTransitionsAndCounters) {
  auto d = make_dc();
  const auto s = d.add_server(4, 2000.0);
  EXPECT_EQ(d.active_server_count(), 0u);
  d.start_booting(0.0, s);
  EXPECT_EQ(d.booting_server_count(), 1u);
  d.finish_booting(10.0, s);
  EXPECT_EQ(d.active_server_count(), 1u);
  EXPECT_EQ(d.total_activations(), 1u);
  d.hibernate(20.0, s);
  EXPECT_EQ(d.active_server_count(), 0u);
  EXPECT_EQ(d.total_hibernations(), 1u);
}

TEST(DataCenter, InvalidTransitionsThrow) {
  auto d = make_dc();
  const auto s = d.add_server(4, 2000.0);
  EXPECT_THROW(d.finish_booting(0.0, s), std::invalid_argument);
  EXPECT_THROW(d.hibernate(0.0, s), std::invalid_argument);
  d.start_booting(0.0, s);
  EXPECT_THROW(d.start_booting(0.0, s), std::invalid_argument);
}

TEST(DataCenter, HibernateRequiresEmptyAndUnreserved) {
  auto d = make_dc();
  const auto s1 = d.add_server(4, 2000.0);
  const auto s2 = d.add_server(4, 2000.0);
  const auto v = d.create_vm(100.0);
  d.start_booting(0.0, s1);
  d.finish_booting(0.0, s1);
  d.start_booting(0.0, s2);
  d.finish_booting(0.0, s2);
  d.place_vm(0.0, v, s1);
  EXPECT_THROW(d.hibernate(1.0, s1), std::invalid_argument);
  d.begin_migration(1.0, v, s2);
  EXPECT_THROW(d.hibernate(1.0, s2), std::invalid_argument);  // reservation
  d.complete_migration(2.0, v);
  d.hibernate(3.0, s1);
  EXPECT_TRUE(d.server(s1).hibernated());
}

TEST(DataCenter, MigrationMovesVmAndReleasesReservation) {
  auto d = make_dc();
  const auto s1 = d.add_server(4, 2000.0);
  const auto s2 = d.add_server(4, 2000.0);
  const auto v = d.create_vm(1000.0);
  for (auto s : {s1, s2}) {
    d.start_booting(0.0, s);
    d.finish_booting(0.0, s);
  }
  d.place_vm(0.0, v, s1);
  d.begin_migration(10.0, v, s2);
  EXPECT_TRUE(d.vm(v).migrating());
  EXPECT_DOUBLE_EQ(d.server(s2).reserved_mhz(), 1000.0);
  EXPECT_EQ(d.vm(v).host, s1);  // still running on the source
  d.complete_migration(40.0, v);
  EXPECT_EQ(d.vm(v).host, s2);
  EXPECT_FALSE(d.vm(v).migrating());
  EXPECT_DOUBLE_EQ(d.server(s2).reserved_mhz(), 0.0);
  EXPECT_DOUBLE_EQ(d.server(s1).demand_mhz(), 0.0);
  EXPECT_EQ(d.total_migrations(), 1u);
}

TEST(DataCenter, ReservationTracksDemandChangeMidFlight) {
  // Regression test: demand changing during the flight must not leak
  // reservation capacity at the destination.
  auto d = make_dc();
  const auto s1 = d.add_server(4, 2000.0);
  const auto s2 = d.add_server(4, 2000.0);
  const auto v = d.create_vm(1000.0);
  for (auto s : {s1, s2}) {
    d.start_booting(0.0, s);
    d.finish_booting(0.0, s);
  }
  d.place_vm(0.0, v, s1);
  d.begin_migration(10.0, v, s2);
  d.set_vm_demand(15.0, v, 400.0);  // trace tick mid-flight
  EXPECT_DOUBLE_EQ(d.server(s2).reserved_mhz(), 400.0);
  d.complete_migration(40.0, v);
  EXPECT_DOUBLE_EQ(d.server(s2).reserved_mhz(), 0.0);
  EXPECT_DOUBLE_EQ(d.server(s2).demand_mhz(), 400.0);
}

TEST(DataCenter, CancelMigrationReleasesReservation) {
  auto d = make_dc();
  const auto s1 = d.add_server(4, 2000.0);
  const auto s2 = d.add_server(4, 2000.0);
  const auto v = d.create_vm(500.0);
  for (auto s : {s1, s2}) {
    d.start_booting(0.0, s);
    d.finish_booting(0.0, s);
  }
  d.place_vm(0.0, v, s1);
  d.begin_migration(1.0, v, s2);
  d.cancel_migration(2.0, v);
  EXPECT_FALSE(d.vm(v).migrating());
  EXPECT_DOUBLE_EQ(d.server(s2).reserved_mhz(), 0.0);
  EXPECT_EQ(d.vm(v).host, s1);
}

TEST(DataCenter, MigrationToHibernatedRejected) {
  auto d = make_dc();
  const auto s1 = d.add_server(4, 2000.0);
  const auto s2 = d.add_server(4, 2000.0);
  const auto v = d.create_vm(500.0);
  d.start_booting(0.0, s1);
  d.finish_booting(0.0, s1);
  d.place_vm(0.0, v, s1);
  EXPECT_THROW(d.begin_migration(1.0, v, s2), std::invalid_argument);
}

TEST(DataCenter, DemandUpdateAdjustsHostAndTotals) {
  auto d = make_dc();
  const auto s = d.add_server(4, 2000.0);
  const auto v = d.create_vm(1000.0);
  d.start_booting(0.0, s);
  d.finish_booting(0.0, s);
  d.place_vm(0.0, v, s);
  d.set_vm_demand(1.0, v, 4000.0);
  EXPECT_DOUBLE_EQ(d.server(s).demand_mhz(), 4000.0);
  EXPECT_DOUBLE_EQ(d.total_demand_mhz(), 4000.0);
  EXPECT_DOUBLE_EQ(d.overall_load(), 0.5);
}

TEST(DataCenter, EnergyIntegrationExact) {
  auto d = make_dc();
  const auto s = d.add_server(6, 2000.0);  // peak 220, idle 154, sleep 3
  // 100 s hibernated.
  d.advance_to(100.0);
  EXPECT_DOUBLE_EQ(d.energy_joules(), 300.0);
  d.start_booting(100.0, s);
  d.advance_to(200.0);  // 100 s at peak power
  EXPECT_DOUBLE_EQ(d.energy_joules(), 300.0 + 22000.0);
  d.finish_booting(200.0, s);
  const auto v = d.create_vm(6000.0);  // u = 0.5 -> 187 W
  d.place_vm(200.0, v, s);
  d.advance_to(300.0);
  EXPECT_DOUBLE_EQ(d.energy_joules(), 300.0 + 22000.0 + 18700.0);
}

TEST(DataCenter, OverloadAccountingTracksVmSeconds) {
  auto d = make_dc();
  const auto s = d.add_server(2, 1000.0);  // capacity 2000
  const auto v1 = d.create_vm(1500.0);
  const auto v2 = d.create_vm(1000.0);
  d.start_booting(0.0, s);
  d.finish_booting(0.0, s);
  d.place_vm(0.0, v1, s);
  d.advance_to(100.0);  // not overloaded
  EXPECT_DOUBLE_EQ(d.overload_vm_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(d.vm_seconds(), 100.0);
  d.place_vm(100.0, v2, s);  // now demand 2500 > 2000, 2 VMs
  d.advance_to(150.0);
  EXPECT_DOUBLE_EQ(d.overload_vm_seconds(), 100.0);  // 2 VMs * 50 s
  EXPECT_DOUBLE_EQ(d.vm_seconds(), 200.0);
  d.unplace_vm(150.0, v2);
  d.advance_to(200.0);
  EXPECT_DOUBLE_EQ(d.overload_vm_seconds(), 100.0);
}

TEST(DataCenter, OverloadEpisodesRecorded) {
  auto d = make_dc();
  const auto s = d.add_server(2, 1000.0);
  const auto v = d.create_vm(1000.0);
  d.start_booting(0.0, s);
  d.finish_booting(0.0, s);
  d.place_vm(0.0, v, s);
  d.set_vm_demand(10.0, v, 2500.0);  // overload starts (granted 0.8)
  d.set_vm_demand(20.0, v, 4000.0);  // deeper (granted 0.5)
  d.set_vm_demand(30.0, v, 1000.0);  // ends
  ASSERT_EQ(d.overload_episodes().size(), 1u);
  const auto& ep = d.overload_episodes().front();
  EXPECT_DOUBLE_EQ(ep.start, 10.0);
  EXPECT_DOUBLE_EQ(ep.duration_s, 20.0);
  EXPECT_DOUBLE_EQ(ep.min_granted_fraction, 0.5);
  EXPECT_EQ(ep.server, s);
}

// One trace tick updates a host's VMs one at a time. Raising v1 before
// lowering v2 passes through 2600 MHz on a 2000 MHz server, a state that
// lasts no time; only the state after the whole refresh counts.
TEST(DataCenter, TransientOverloadWithinOneDemandRefreshRecordsNoEpisode) {
  auto d = make_dc();
  const auto s = d.add_server(2, 1000.0);  // capacity 2000
  const auto v1 = d.create_vm(800.0);
  const auto v2 = d.create_vm(800.0);
  d.start_booting(0.0, s);
  d.finish_booting(0.0, s);
  d.place_vm(0.0, v1, s);
  d.place_vm(0.0, v2, s);
  d.begin_demand_refresh();
  d.set_vm_demand(300.0, v1, 1800.0);  // 2600 > 2000 mid-refresh
  d.set_vm_demand(300.0, v2, 100.0);   // 1900: back under capacity
  d.end_demand_refresh(300.0);
  d.advance_to(600.0);
  EXPECT_TRUE(d.overload_episodes().empty());
  EXPECT_DOUBLE_EQ(d.server_overload_seconds(s, 600.0), 0.0);
  EXPECT_DOUBLE_EQ(d.overload_vm_seconds(), 0.0);
}

// A real episode that spans a refresh is neither split at the tick nor
// deepened by the refresh's intermediate states.
TEST(DataCenter, DemandRefreshKeepsASpanningEpisodeWhole) {
  auto d = make_dc();
  const auto s = d.add_server(2, 1000.0);  // capacity 2000
  const auto v1 = d.create_vm(1200.0);
  const auto v2 = d.create_vm(1000.0);
  d.start_booting(0.0, s);
  d.finish_booting(0.0, s);
  d.place_vm(0.0, v1, s);
  d.place_vm(10.0, v2, s);  // 2200: episode opens, granted 2000/2200
  d.begin_demand_refresh();
  d.set_vm_demand(300.0, v2, 100.0);   // 1300 mid-refresh: not overloaded
  d.set_vm_demand(300.0, v1, 3900.0);  // 4000 mid-refresh: granted 0.5
  d.set_vm_demand(300.0, v2, 600.0);   // 4500 mid-refresh
  d.set_vm_demand(300.0, v1, 1900.0);  // final 2500: granted 0.8
  d.end_demand_refresh(300.0);
  EXPECT_TRUE(d.overload_episodes().empty());  // still open
  d.set_vm_demand(400.0, v1, 1000.0);  // 1600: the episode ends
  ASSERT_EQ(d.overload_episodes().size(), 1u);
  const auto& ep = d.overload_episodes().front();
  EXPECT_DOUBLE_EQ(ep.start, 10.0);
  EXPECT_DOUBLE_EQ(ep.duration_s, 390.0);
  EXPECT_DOUBLE_EQ(ep.min_granted_fraction, 0.8);
  EXPECT_DOUBLE_EQ(d.server_overload_seconds(s, 400.0), 390.0);
}

TEST(DataCenter, DemandRefreshBracketsMustPair) {
  auto d = make_dc();
  d.add_server(2, 1000.0);
  EXPECT_THROW(d.end_demand_refresh(0.0), std::logic_error);
  d.begin_demand_refresh();
  EXPECT_THROW(d.begin_demand_refresh(), std::logic_error);
  d.end_demand_refresh(0.0);
}

TEST(DataCenter, ResetAccountingClearsAccumulators) {
  auto d = make_dc();
  d.add_server(4, 2000.0);
  d.advance_to(100.0);
  EXPECT_GT(d.energy_joules(), 0.0);
  d.reset_accounting(100.0);
  EXPECT_DOUBLE_EQ(d.energy_joules(), 0.0);
  EXPECT_DOUBLE_EQ(d.vm_seconds(), 0.0);
  d.advance_to(200.0);
  EXPECT_DOUBLE_EQ(d.energy_joules(), 300.0);
}

TEST(DataCenter, TimeMustBeMonotone) {
  auto d = make_dc();
  d.advance_to(10.0);
  EXPECT_THROW(d.advance_to(5.0), std::invalid_argument);
}

TEST(DataCenter, ServersInStateAndUtilizations) {
  auto d = make_dc();
  const auto s1 = d.add_server(4, 2000.0);
  const auto s2 = d.add_server(4, 2000.0);
  d.add_server(4, 2000.0);
  d.start_booting(0.0, s1);
  d.finish_booting(0.0, s1);
  d.start_booting(0.0, s2);
  EXPECT_EQ(d.servers_in_state(dc::ServerState::kActive).size(), 1u);
  EXPECT_EQ(d.servers_in_state(dc::ServerState::kBooting).size(), 1u);
  EXPECT_EQ(d.servers_in_state(dc::ServerState::kHibernated).size(), 1u);
  const auto v = d.create_vm(4000.0);
  d.place_vm(0.0, v, s1);
  const auto utils = d.active_utilizations();
  ASSERT_EQ(utils.size(), 1u);
  EXPECT_DOUBLE_EQ(utils[0], 0.5);
}

TEST(DataCenter, TotalPowerMaintainedIncrementally) {
  auto d = make_dc();
  const auto s1 = d.add_server(6, 2000.0);
  const auto s2 = d.add_server(6, 2000.0);
  EXPECT_DOUBLE_EQ(d.total_power_w(), 6.0);  // two sleepers
  d.start_booting(0.0, s1);
  EXPECT_DOUBLE_EQ(d.total_power_w(), 220.0 + 3.0);
  d.finish_booting(0.0, s1);
  EXPECT_DOUBLE_EQ(d.total_power_w(), 154.0 + 3.0);
  const auto v = d.create_vm(6000.0);
  d.place_vm(0.0, v, s1);
  EXPECT_DOUBLE_EQ(d.total_power_w(), 187.0 + 3.0);
  (void)s2;
}

TEST(DataCenter, PerVmOverloadAttribution) {
  auto d = make_dc();
  const auto s = d.add_server(2, 1000.0);  // capacity 2000
  d.start_booting(0.0, s);
  d.finish_booting(0.0, s);
  const auto v1 = d.create_vm(1500.0);
  const auto v2 = d.create_vm(1000.0);
  d.place_vm(0.0, v1, s);
  EXPECT_DOUBLE_EQ(d.vm_overload_seconds(v1, 50.0), 0.0);
  d.place_vm(100.0, v2, s);  // overload starts
  EXPECT_DOUBLE_EQ(d.vm_overload_seconds(v1, 130.0), 30.0);
  EXPECT_DOUBLE_EQ(d.vm_overload_seconds(v2, 130.0), 30.0);
  d.unplace_vm(150.0, v2);  // overload ends; v2 leaves with 50 s
  EXPECT_DOUBLE_EQ(d.vm_overload_seconds(v2, 500.0), 50.0);
  EXPECT_DOUBLE_EQ(d.vm_overload_seconds(v1, 500.0), 50.0);
  EXPECT_DOUBLE_EQ(d.server_overload_seconds(s, 500.0), 50.0);
}

TEST(DataCenter, PerVmOverloadSurvivesMigration) {
  auto d = make_dc();
  const auto hot = d.add_server(2, 1000.0);
  const auto cool = d.add_server(8, 2000.0);
  for (auto s : {hot, cool}) {
    d.start_booting(0.0, s);
    d.finish_booting(0.0, s);
  }
  const auto v = d.create_vm(3000.0);  // overloads `hot` on its own
  d.place_vm(0.0, v, hot);
  EXPECT_DOUBLE_EQ(d.vm_overload_seconds(v, 40.0), 40.0);
  d.begin_migration(40.0, v, cool);
  d.complete_migration(60.0, v);  // still on hot until 60 s
  // On `cool` (capacity 16000) it is not shortchanged anymore.
  EXPECT_DOUBLE_EQ(d.vm_overload_seconds(v, 200.0), 60.0);
}

TEST(DataCenter, VmOverloadSumsMatchGlobalAccounting) {
  auto d = make_dc();
  const auto s = d.add_server(2, 1000.0);
  d.start_booting(0.0, s);
  d.finish_booting(0.0, s);
  const auto v1 = d.create_vm(1200.0);
  const auto v2 = d.create_vm(1200.0);
  d.place_vm(0.0, v1, s);
  d.place_vm(10.0, v2, s);           // overloaded from t=10
  d.set_vm_demand(30.0, v2, 100.0);  // back under capacity
  d.advance_to(100.0);
  const double per_vm =
      d.vm_overload_seconds(v1, 100.0) + d.vm_overload_seconds(v2, 100.0);
  EXPECT_DOUBLE_EQ(per_vm, d.overload_vm_seconds());
  EXPECT_DOUBLE_EQ(per_vm, 40.0);  // 2 VMs x 20 s
}

TEST(Server, ChangeDemandClampsAtZero) {
  dc::ServerSoA s_soa;
  dc::Server s = s_soa.add(4, 2000.0);
  s.host_vm(0, 100.0, 0.0);
  s.change_demand(-500.0);
  EXPECT_DOUBLE_EQ(s.demand_mhz(), 0.0);
}

TEST(Server, RemoveReservationClampsAtZero) {
  dc::ServerSoA s_soa;
  dc::Server s = s_soa.add(4, 2000.0);
  s.add_reservation(50.0);
  s.remove_reservation(100.0);
  EXPECT_DOUBLE_EQ(s.reserved_mhz(), 0.0);
}

TEST(DataCenter, UnplaceMigratingVmRejected) {
  auto d = make_dc();
  const auto s1 = d.add_server(4, 2000.0);
  const auto s2 = d.add_server(4, 2000.0);
  for (auto s : {s1, s2}) {
    d.start_booting(0.0, s);
    d.finish_booting(0.0, s);
  }
  const auto v = d.create_vm(100.0);
  d.place_vm(0.0, v, s1);
  d.begin_migration(1.0, v, s2);
  EXPECT_THROW(d.unplace_vm(2.0, v), std::invalid_argument);
  d.cancel_migration(2.0, v);
  EXPECT_NO_THROW(d.unplace_vm(3.0, v));
}

TEST(DataCenter, MigrationToSelfRejected) {
  auto d = make_dc();
  const auto s = d.add_server(4, 2000.0);
  d.start_booting(0.0, s);
  d.finish_booting(0.0, s);
  const auto v = d.create_vm(100.0);
  d.place_vm(0.0, v, s);
  EXPECT_THROW(d.begin_migration(1.0, v, s), std::invalid_argument);
}

TEST(DataCenter, CreateVmValidation) {
  auto d = make_dc();
  EXPECT_THROW(d.create_vm(-1.0), std::invalid_argument);
  EXPECT_THROW(d.create_vm(1.0, -1.0), std::invalid_argument);
}

// --------------------------------------------------------------- fail-stop

TEST(DataCenter, FailServerOrphansVmsAndGoesDark) {
  auto d = make_dc();
  const auto s = d.add_server(6, 2000.0);
  const auto a = d.create_vm(1000.0);
  const auto b = d.create_vm(2000.0);
  d.start_booting(0.0, s);
  d.finish_booting(0.0, s);
  d.place_vm(0.0, a, s);
  d.place_vm(0.0, b, s);

  const auto orphans = d.fail_server(10.0, s);
  EXPECT_EQ(orphans, (std::vector<dc::VmId>{a, b}));
  EXPECT_TRUE(d.server(s).failed());
  EXPECT_EQ(d.failed_server_count(), 1u);
  EXPECT_EQ(d.total_failures(), 1u);
  EXPECT_EQ(d.active_server_count(), 0u);
  EXPECT_EQ(d.placed_vm_count(), 0u);
  EXPECT_FALSE(d.vm(a).placed());
  EXPECT_FALSE(d.vm(b).placed());
  EXPECT_DOUBLE_EQ(d.total_demand_mhz(), 0.0);

  // A dark server draws nothing: no energy accrues while it is down.
  const double at_failure = d.energy_joules();
  d.advance_to(1000.0);
  EXPECT_DOUBLE_EQ(d.energy_joules(), at_failure);

  d.repair_server(1000.0, s);
  EXPECT_TRUE(d.server(s).hibernated());
  EXPECT_EQ(d.failed_server_count(), 0u);
  EXPECT_EQ(d.total_repairs(), 1u);
}

TEST(DataCenter, FailServerWhileBooting) {
  auto d = make_dc();
  const auto s = d.add_server(4, 2000.0);
  d.start_booting(0.0, s);
  const auto orphans = d.fail_server(5.0, s);
  EXPECT_TRUE(orphans.empty());
  EXPECT_EQ(d.booting_server_count(), 0u);
  EXPECT_TRUE(d.server(s).failed());
  // A failed server cannot host, boot, or hibernate.
  const auto v = d.create_vm(100.0);
  EXPECT_THROW(d.place_vm(6.0, v, s), std::invalid_argument);
  EXPECT_THROW(d.start_booting(6.0, s), std::invalid_argument);
  EXPECT_THROW(d.hibernate(6.0, s), std::invalid_argument);
}

TEST(DataCenter, FailRepairPreconditions) {
  auto d = make_dc();
  const auto s = d.add_server(4, 2000.0);
  EXPECT_THROW(d.repair_server(0.0, s), std::invalid_argument);  // not failed
  d.fail_server(0.0, s);
  EXPECT_THROW(d.fail_server(1.0, s), std::invalid_argument);  // already failed
  d.repair_server(2.0, s);
  EXPECT_TRUE(d.server(s).hibernated());
}

TEST(DataCenter, FailServerRejectsPendingMigrations) {
  auto d = make_dc();
  const auto source = d.add_server(6, 2000.0);
  const auto dest = d.add_server(6, 2000.0);
  for (auto s : {source, dest}) {
    d.start_booting(0.0, s);
    d.finish_booting(0.0, s);
  }
  const auto v = d.create_vm(1000.0);
  d.place_vm(0.0, v, source);
  d.begin_migration(1.0, v, dest);
  // Both endpoints refuse to fail-stop while the flight is open: the
  // controller must roll the migration back first.
  EXPECT_THROW(d.fail_server(2.0, source), std::invalid_argument);
  EXPECT_THROW(d.fail_server(2.0, dest), std::invalid_argument);
  d.cancel_migration(3.0, v);
  const auto orphans = d.fail_server(4.0, source);
  EXPECT_EQ(orphans, (std::vector<dc::VmId>{v}));
}

TEST(Server, ReservationCountSnapsResidueOnlyWhenCleared) {
  dc::ServerSoA s_soa;
  dc::Server s = s_soa.add(6, 2000.0, 1024.0);
  s.add_reservation(0.1);
  s.add_reservation(0.2);
  EXPECT_EQ(s.reservation_count(), 2u);
  s.remove_reservation(0.2);
  EXPECT_EQ(s.reservation_count(), 1u);
  // The float sum may carry residue while reservations remain open...
  s.remove_reservation(0.1);
  EXPECT_EQ(s.reservation_count(), 0u);
  // ...but clear_reservations wipes both, residue included.
  s.add_reservation(0.3);
  s.clear_reservations();
  EXPECT_EQ(s.reservation_count(), 0u);
  EXPECT_DOUBLE_EQ(s.reserved_mhz(), 0.0);
}
