// Planet-tier smoke: a 100,000-server fleet on a very short horizon,
// exercising the whole planet-scale configuration at once — SoA fleet
// state at 10^5 servers, the O(1) fast sampler with bounded invitation
// groups, the batched monitor kernel, and the streaming trace cursor
// banks (single-calendar AND per-shard) — in runs cheap enough for every
// ctest invocation. CI's ASan/UBSan matrix leg runs these under the
// sanitizers, which is the point: the planet bench rows only ever run in
// Release, so this test is where address errors in the large-fleet paths
// would surface.

#include <gtest/gtest.h>

#include "ecocloud/par/sharded_runner.hpp"
#include "ecocloud/scenario/scenario.hpp"

namespace {

using namespace ecocloud;

scenario::DailyConfig planet_smoke_config() {
  scenario::DailyConfig config;
  config.fleet.num_servers = 100000;
  config.num_vms = 200000;
  config.warmup_s = 0.0;
  config.horizon_s = 600.0;  // 10 sim-minutes: two trace steps, one ramp
  config.params.fast_sampler = true;
  config.params.invite_group_size = 64;
  config.streaming_traces = true;
  return config;
}

TEST(PlanetSmoke, HundredThousandServerShortHorizonRunsClean) {
  scenario::DailyScenario daily(planet_smoke_config());
  daily.run();

  // The fleet actually absorbed the population: every VM is somewhere
  // (deploy retries notwithstanding, the short horizon is enough for the
  // initial placement wave), energy accumulated, and the invariants the
  // auditor checks hold.
  const auto& d = daily.datacenter();
  EXPECT_GT(d.energy_joules(), 0.0);
  EXPECT_GT(d.active_server_count(), 0u);
  EXPECT_GT(d.placed_vm_count(), 0u);
  const auto violations = d.audit_invariants(1e-6);
  EXPECT_TRUE(violations.empty())
      << "first violation: " << (violations.empty() ? "" : violations[0]);
}

// The sharded planet path on per-shard streaming banks (DESIGN.md §17):
// partitioned bank generation, per-shard cursor advance, and barrier
// adoption all at 10^5 servers, under whatever sanitizer the build
// carries. The banks must actually be in use — streaming_traces is
// honored, never silently downgraded to a materialized TraceSet.
TEST(PlanetSmoke, ShardedStreamingBanksRunClean) {
  ecocloud::par::ShardedDailyRun run(planet_smoke_config(),
                                     {.shards = 8, .threads = 4});
  for (std::size_t k = 0; k < run.num_shards(); ++k) {
    ASSERT_TRUE(run.shard(k).daily().trace_source().is_streaming())
        << "shard " << k;
  }
  run.run();
  EXPECT_GT(run.stats().energy_joules, 0.0);
  EXPECT_GT(run.stats().barriers, 0u);
  for (std::size_t k = 0; k < run.num_shards(); ++k) {
    const auto violations = run.shard(k).datacenter().audit_invariants(1e-6);
    EXPECT_TRUE(violations.empty())
        << "shard " << k << " first violation: "
        << (violations.empty() ? "" : violations[0]);
  }
}

// Determinism holds at this scale too: same config, same stream.
TEST(PlanetSmoke, RepeatRunIsBitIdentical) {
  scenario::DailyScenario a(planet_smoke_config());
  scenario::DailyScenario b(planet_smoke_config());
  a.run();
  b.run();
  EXPECT_EQ(a.datacenter().energy_joules(), b.datacenter().energy_joules());
  EXPECT_EQ(a.datacenter().total_migrations(),
            b.datacenter().total_migrations());
  EXPECT_EQ(a.simulator().executed_events(), b.simulator().executed_events());
}

}  // namespace
