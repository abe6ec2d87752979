// Tests for the multi-resource extension (paper Sec. V future work).

#include <gtest/gtest.h>

#include "ecocloud/multires/multi_resource.hpp"

namespace multires = ecocloud::multires;
namespace core = ecocloud::core;
namespace dc = ecocloud::dc;
using ecocloud::util::Rng;

namespace {

struct Fixture {
  dc::DataCenter datacenter;
  core::EcoCloudParams params;
  Rng rng{55};

  dc::ServerId add_server(double cpu_util, double ram_util, double ram_mb = 24000.0) {
    const auto s = datacenter.add_server(6, 2000.0, ram_mb);
    datacenter.start_booting(0.0, s);
    datacenter.finish_booting(0.0, s);
    if (cpu_util > 0.0 || ram_util > 0.0) {
      const auto v = datacenter.create_vm(cpu_util * 12000.0, ram_util * ram_mb);
      datacenter.place_vm(0.0, v, s);
    }
    return s;
  }
};

}  // namespace

TEST(MultiResource, StrategyNames) {
  EXPECT_STREQ(multires::to_string(multires::Strategy::kAllTrials), "all-trials");
  EXPECT_STREQ(multires::to_string(multires::Strategy::kCriticalTrial),
               "critical-trial");
}

TEST(MultiResource, HardFeasibilityAlwaysEnforced) {
  Fixture f;
  f.add_server(0.675, 0.95);  // RAM nearly full
  for (auto strategy :
       {multires::Strategy::kAllTrials, multires::Strategy::kCriticalTrial}) {
    multires::MultiResourceAssignment proc(f.params, strategy, f.rng);
    // 10% of RAM cannot fit on a server at 95% RAM.
    for (int i = 0; i < 100; ++i) {
      EXPECT_FALSE(proc.invite(f.datacenter, 100.0, 2400.0).server.has_value());
    }
  }
}

TEST(MultiResource, AllTrialsRequiresBothResourcesAttractive) {
  Fixture f;
  // CPU at argmax (f_a = 1) but RAM empty (f_a = 0): the AND of trials
  // must always fail.
  f.add_server(0.675, 0.0);
  multires::MultiResourceAssignment proc(f.params, multires::Strategy::kAllTrials,
                                         f.rng);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(proc.invite(f.datacenter, 100.0, 0.0).server.has_value());
  }
}

TEST(MultiResource, AllTrialsAcceptanceIsProductOfFa) {
  Fixture f;
  const double u_cpu = 0.5, u_ram = 0.4;
  f.add_server(u_cpu, u_ram);
  multires::MultiResourceAssignment proc(f.params, multires::Strategy::kAllTrials,
                                         f.rng);
  core::AssignmentFunction fa(f.params.ta, f.params.p);
  const double expected = fa(u_cpu) * fa(u_ram);
  int accepted = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (proc.invite(f.datacenter, 10.0, 10.0).server.has_value()) ++accepted;
  }
  EXPECT_NEAR(static_cast<double>(accepted) / n, expected, 0.02);
}

TEST(MultiResource, CriticalTrialUsesMostUtilizedResource) {
  Fixture f;
  const double u_cpu = 0.3, u_ram = 0.675;  // RAM is critical, fa(0.675) = 1
  f.add_server(u_cpu, u_ram);
  multires::MultiResourceAssignment proc(
      f.params, multires::Strategy::kCriticalTrial, f.rng);
  int accepted = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    if (proc.invite(f.datacenter, 10.0, 10.0).server.has_value()) ++accepted;
  }
  EXPECT_EQ(accepted, n);  // fa(critical) = 1 and constraints hold
}

TEST(MultiResource, CriticalTrialEnforcesConstraintOnOtherResource) {
  Fixture f;
  // CPU critical at argmax; placing the VM would push RAM above Ta.
  f.add_server(0.675, 0.88);
  multires::MultiResourceAssignment proc(
      f.params, multires::Strategy::kCriticalTrial, f.rng);
  // VM needs 5% RAM: 0.88 + 0.05 = 0.93 > Ta = 0.9 -> constraint fails.
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(proc.invite(f.datacenter, 10.0, 0.05 * 24000.0).server.has_value());
  }
}

TEST(MultiResource, ServersWithoutRamTreatRamAsFree) {
  Fixture f;
  const auto s = f.datacenter.add_server(6, 2000.0, 0.0);  // no RAM tracked
  f.datacenter.start_booting(0.0, s);
  f.datacenter.finish_booting(0.0, s);
  const auto v = f.datacenter.create_vm(0.675 * 12000.0, 0.0);
  f.datacenter.place_vm(0.0, v, s);
  multires::MultiResourceAssignment all(f.params, multires::Strategy::kAllTrials,
                                        f.rng);
  // RAM utilization reads 0 -> fa(0) = 0 -> all-trials never accepts.
  EXPECT_FALSE(all.invite(f.datacenter, 10.0, 100.0).server.has_value());
  multires::MultiResourceAssignment critical(
      f.params, multires::Strategy::kCriticalTrial, f.rng);
  // Critical resource is CPU at argmax -> always accepts.
  EXPECT_TRUE(critical.invite(f.datacenter, 10.0, 100.0).server.has_value());
}

TEST(MultiResource, InviteCountsContactedAndVolunteers) {
  Fixture f;
  for (int i = 0; i < 5; ++i) f.add_server(0.675, 0.675);
  f.datacenter.add_server(6, 2000.0, 24000.0);  // hibernated, not contacted
  multires::MultiResourceAssignment proc(
      f.params, multires::Strategy::kCriticalTrial, f.rng);
  const auto result = proc.invite(f.datacenter, 10.0, 10.0);
  EXPECT_EQ(result.contacted, 5u);
  EXPECT_EQ(result.volunteers, 5u);
  EXPECT_TRUE(result.server.has_value());
}

TEST(MultiResource, CriticalPacksTighterThanAllTrials) {
  // The paper's hypothesized trade-off: the critical-trial strategy should
  // volunteer at least as often as the AND-of-trials strategy.
  Fixture f;
  f.add_server(0.5, 0.3);
  Rng rng_a(7), rng_b(7);
  multires::MultiResourceAssignment all(f.params, multires::Strategy::kAllTrials,
                                        rng_a);
  multires::MultiResourceAssignment critical(
      f.params, multires::Strategy::kCriticalTrial, rng_b);
  int all_accepts = 0, critical_accepts = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (all.invite(f.datacenter, 10.0, 10.0).server.has_value()) ++all_accepts;
    if (critical.invite(f.datacenter, 10.0, 10.0).server.has_value()) {
      ++critical_accepts;
    }
  }
  EXPECT_GT(critical_accepts, all_accepts);
}

TEST(MultiResource, NegativeDemandRejected) {
  Fixture f;
  multires::MultiResourceAssignment proc(f.params, multires::Strategy::kAllTrials,
                                         f.rng);
  EXPECT_THROW((void)proc.invite(f.datacenter, -1.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)proc.invite(f.datacenter, 0.0, -1.0), std::invalid_argument);
}
