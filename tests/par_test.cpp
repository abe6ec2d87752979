// Tests for ecocloud::par — the deterministic sharded parallel engine.
//
// The two load-bearing properties:
//  * K=1 sharded mode is BIT-IDENTICAL to the single-threaded engine
//    (same event CSV bytes, same samples, same aggregate totals);
//  * for fixed K, output is bit-identical on 1, 2, or 8 worker threads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/ckpt/snapshot_io.hpp"
#include "ecocloud/metrics/event_log.hpp"
#include "ecocloud/obs/exporters.hpp"
#include "ecocloud/par/event_merge.hpp"
#include "ecocloud/par/partition.hpp"
#include "ecocloud/par/sharded_runner.hpp"
#include "ecocloud/par/sharded_telemetry.hpp"
#include "ecocloud/scenario/scenario.hpp"

using namespace ecocloud;

namespace {

scenario::DailyConfig small_config() {
  scenario::DailyConfig config;
  config.fleet.num_servers = 48;
  config.num_vms = 600;
  config.horizon_s = 3.0 * sim::kHour;
  config.warmup_s = 0.5 * sim::kHour;
  config.seed = 7;
  return config;
}

scenario::DailyConfig faulted_config() {
  auto config = small_config();
  config.faults.server_mtbf_s = 2.0 * sim::kHour;
  config.faults.server_mttr_s = 600.0;
  config.faults.migration_abort_prob = 0.05;
  return config;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "par_test_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string events_csv(const par::ShardedDailyRun& run) {
  std::ostringstream out;
  run.write_events_csv(out);
  return out.str();
}

void expect_samples_identical(const std::vector<metrics::Sample>& a,
                              const std::vector<metrics::Sample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].active_servers, b[i].active_servers);
    EXPECT_EQ(a[i].booting_servers, b[i].booting_servers);
    EXPECT_EQ(a[i].overall_load, b[i].overall_load);
    EXPECT_EQ(a[i].power_w, b[i].power_w);
    EXPECT_EQ(a[i].overload_percent, b[i].overload_percent);
    EXPECT_EQ(a[i].window_energy_j, b[i].window_energy_j);
    EXPECT_EQ(a[i].window_vm_seconds, b[i].window_vm_seconds);
    EXPECT_EQ(a[i].window_overload_vm_seconds,
              b[i].window_overload_vm_seconds);
  }
}

void expect_stats_identical(const par::ParStats& a, const par::ParStats& b) {
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.low_migrations, b.low_migrations);
  EXPECT_EQ(a.high_migrations, b.high_migrations);
  EXPECT_EQ(a.cross_shard_migrations, b.cross_shard_migrations);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_EQ(a.hibernations, b.hibernations);
  EXPECT_EQ(a.wake_ups, b.wake_ups);
  EXPECT_EQ(a.assignment_failures, b.assignment_failures);
  EXPECT_EQ(a.stranded_wishes, b.stranded_wishes);
  EXPECT_EQ(a.handoff_attempts, b.handoff_attempts);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.audits_run, b.audits_run);
  EXPECT_EQ(a.audit_failures, b.audit_failures);
  EXPECT_EQ(a.audit_rounds_failed, b.audit_rounds_failed);
  EXPECT_EQ(a.audit_heals, b.audit_heals);
  EXPECT_EQ(a.checkpoints_written, b.checkpoints_written);
  EXPECT_EQ(a.snapshot_bytes_last, b.snapshot_bytes_last);
  EXPECT_EQ(a.checkpoint_seconds_last, b.checkpoint_seconds_last);
  EXPECT_EQ(a.checkpoint_seconds_total, b.checkpoint_seconds_total);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
}

}  // namespace

// ----------------------------------------------------------------- partition

TEST(ShardPlan, RoundTripsServerIds) {
  for (const std::size_t k : {1u, 3u, 5u}) {
    const par::ShardPlan plan(k, 48, 600);
    std::size_t covered = 0;
    for (std::size_t shard = 0; shard < k; ++shard) {
      covered += plan.servers_in(shard);
    }
    EXPECT_EQ(covered, 48u);
    for (dc::ServerId g = 0; g < 48; ++g) {
      const std::size_t shard = plan.shard_of_server(g);
      EXPECT_LT(shard, k);
      const dc::ServerId local = plan.local_server(g);
      EXPECT_LT(local, plan.servers_in(shard));
      EXPECT_EQ(plan.global_server(shard, local), g);
    }
  }
}

TEST(ShardPlan, IsIdentityForOneShard) {
  const par::ShardPlan plan(1, 16, 100);
  for (dc::ServerId g = 0; g < 16; ++g) {
    EXPECT_EQ(plan.shard_of_server(g), 0u);
    EXPECT_EQ(plan.local_server(g), g);
  }
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(plan.shard_of_trace(i), 0u);
  }
}

TEST(ShardPlan, RejectsMoreShardsThanServers) {
  EXPECT_THROW(par::ShardPlan(10, 4, 100), std::invalid_argument);
}

// 32-bit id boundary: global ids are dc::ServerId/dc::VmId (uint32_t) with
// the max value reserved as the none-sentinel. Plans beyond the id space
// must refuse loudly instead of letting the casts wrap; plans at planet
// scale (1M servers, 15M VMs) and at the exact boundary must work.
TEST(ShardPlan, RejectsPlansBeyondThe32BitIdSpace) {
  const std::size_t id_space = static_cast<std::size_t>(dc::kNoServer);  // 2^32-1

  // Planet scale round-trips fine, including the highest global id.
  const par::ShardPlan planet(8, 1'000'000, 15'000'000);
  const dc::ServerId top = 999'999;
  EXPECT_EQ(planet.global_server(planet.shard_of_server(top),
                                 planet.local_server(top)),
            top);

  // Exactly at the boundary: the largest representable plan (max id is the
  // sentinel, so the last valid count is 2^32-2 ids... i.e. < sentinel).
  const par::ShardPlan boundary(1, id_space - 1, id_space - 1);
  const auto last = static_cast<dc::ServerId>(id_space - 2);
  EXPECT_EQ(boundary.global_server(0, boundary.local_server(last)), last);

  // One past: a fleet whose ids would collide with kNoServer/kNoVm or wrap.
  EXPECT_THROW(par::ShardPlan(1, id_space, 100), std::invalid_argument);
  EXPECT_THROW(par::ShardPlan(1, id_space + 1, 100), std::invalid_argument);
  EXPECT_THROW(par::ShardPlan(1, 100, id_space), std::invalid_argument);

  // A stale local id that would truncate through the 32-bit cast fails
  // instead of minting a bogus global id.
  const par::ShardPlan small(4, 48, 600);
  EXPECT_THROW((void)small.global_server(3, 100), std::invalid_argument);
}

// --------------------------------------------------------- unsupported modes

TEST(ShardedDailyRun, RejectsTopologyAndBadSyncInterval) {
  // Rack topology is the one remaining exclusion (invitations would need
  // cross-shard rack scoping); faults, checkpointing, auditing, and
  // telemetry all compose with sharding now.
  {
    auto config = small_config();
    config.topology = net::TopologyConfig{};
    EXPECT_THROW(par::ShardedDailyRun(config, {.shards = 2}),
                 std::invalid_argument);
  }
  {
    const auto config = small_config();
    EXPECT_THROW(
        par::ShardedDailyRun(config, {.shards = 2, .sync_interval_s = 0.0}),
        std::invalid_argument);
    EXPECT_THROW(
        par::ShardedDailyRun(config, {.shards = 2, .sync_interval_s = -5.0}),
        std::invalid_argument);
  }
}

// -------------------------------------------------- K=1 == single-threaded

TEST(ShardedDailyRun, SingleShardIsBitIdenticalToSingleThreadedEngine) {
  const auto config = small_config();

  scenario::DailyScenario reference(config);
  metrics::EventLog reference_log;
  reference_log.attach(*reference.ecocloud());
  reference.run();

  par::ShardedDailyRun sharded(config, {.shards = 1, .threads = 2});
  sharded.run();

  // Aggregate totals: exact, not approximate.
  const dc::DataCenter& rdc = reference.datacenter();
  EXPECT_EQ(sharded.stats().executed_events,
            reference.simulator().executed_events());
  EXPECT_EQ(sharded.stats().migrations, rdc.total_migrations());
  EXPECT_EQ(sharded.stats().activations, rdc.total_activations());
  EXPECT_EQ(sharded.stats().hibernations, rdc.total_hibernations());
  EXPECT_EQ(sharded.stats().energy_joules, rdc.energy_joules());
  EXPECT_EQ(sharded.stats().low_migrations,
            reference.ecocloud()->low_migrations());
  EXPECT_EQ(sharded.stats().high_migrations,
            reference.ecocloud()->high_migrations());
  EXPECT_EQ(sharded.stats().cross_shard_migrations, 0u);

  // Samples: field-exact.
  expect_samples_identical(sharded.merged_samples(),
                           reference.collector().samples());

  // Event log: byte-exact.
  std::ostringstream reference_csv;
  reference_log.write_csv(reference_csv);
  EXPECT_EQ(events_csv(sharded), reference_csv.str());
}

TEST(ShardedDailyRun, SingleShardRunsRackTopologyLikeTheSingleCalendar) {
  // Rack-scoped invitations need no cross-shard scoping when there is only
  // one shard, so K=1 keeps supporting the topology (K>1 refuses it, see
  // RejectsTopologyAndBadSyncInterval).
  auto config = small_config();
  config.topology = net::TopologyConfig{.num_racks = 4};

  scenario::DailyScenario reference(config);
  metrics::EventLog reference_log;
  reference_log.attach(*reference.ecocloud());
  reference.run();

  par::ShardedDailyRun sharded(config, {.shards = 1});
  sharded.run();
  EXPECT_EQ(sharded.stats().energy_joules,
            reference.datacenter().energy_joules());
  std::ostringstream reference_csv;
  reference_log.write_csv(reference_csv);
  EXPECT_EQ(events_csv(sharded), reference_csv.str());
}

// ------------------------------------------- thread-count independence (K=4)

TEST(ShardedDailyRun, FixedShardCountIsDeterministicAcrossThreadCounts) {
  const auto config = small_config();

  par::ShardedDailyRun t1(config, {.shards = 4, .threads = 1});
  par::ShardedDailyRun t2(config, {.shards = 4, .threads = 2});
  par::ShardedDailyRun t8(config, {.shards = 4, .threads = 8});
  t1.run();
  t2.run();
  t8.run();

  for (const par::ShardedDailyRun* other : {&t2, &t8}) {
    EXPECT_EQ(t1.stats().executed_events, other->stats().executed_events);
    EXPECT_EQ(t1.stats().migrations, other->stats().migrations);
    EXPECT_EQ(t1.stats().cross_shard_migrations,
              other->stats().cross_shard_migrations);
    EXPECT_EQ(t1.stats().energy_joules, other->stats().energy_joules);
    EXPECT_EQ(t1.stats().stranded_wishes, other->stats().stranded_wishes);
    expect_samples_identical(t1.merged_samples(), other->merged_samples());
    EXPECT_EQ(events_csv(t1), events_csv(*other));
  }
}

// ------------------------------------------------------ cross-shard hand-off

TEST(ShardedDailyRun, HandsOffStrandedMigrationsAcrossShards) {
  // Small shards saturate locally long before the whole fleet does, so a
  // multi-shard run must exercise the barrier hand-off path.
  const auto config = small_config();
  par::ShardedDailyRun run(config, {.shards = 4, .threads = 2});
  run.run();

  EXPECT_GT(run.stats().stranded_wishes, 0u);
  EXPECT_GT(run.stats().cross_shard_migrations, 0u);
  EXPECT_GT(run.stats().barriers, 0u);
  // Cross-shard transfers are counted into the migration totals.
  std::uint64_t intra = 0;
  for (std::size_t k = 0; k < run.num_shards(); ++k) {
    intra += run.shard(k).datacenter().total_migrations();
  }
  EXPECT_EQ(run.stats().migrations,
            intra + run.stats().cross_shard_migrations);
  // Every VM is driven by exactly one shard: total demand conservation at
  // the end (each shard's datacenter only knows its own VMs).
  EXPECT_EQ(run.stats().low_migrations + run.stats().high_migrations,
            run.stats().migrations);
}

TEST(ShardedDailyRun, SameShardCountSameSeedReproduces) {
  const auto config = small_config();
  par::ShardedDailyRun a(config, {.shards = 2, .threads = 2});
  par::ShardedDailyRun b(config, {.shards = 2, .threads = 2});
  a.run();
  b.run();
  EXPECT_EQ(events_csv(a), events_csv(b));
  EXPECT_EQ(a.stats().energy_joules, b.stats().energy_joules);
}

// ------------------------------------------------------- faults under shards

TEST(ShardedDailyRun, SingleShardFaultedMatchesSingleThreadedEngine) {
  // K=1 with fault injection replays the single-threaded faulted run
  // exactly: same crash/repair draws, same redeploys, same bytes.
  const auto config = faulted_config();

  scenario::DailyScenario reference(config);
  metrics::EventLog reference_log;
  reference_log.attach(*reference.ecocloud());
  reference.run();
  ASSERT_NE(reference.fault_injector(), nullptr);

  par::ShardedDailyRun sharded(config, {.shards = 1, .threads = 2});
  ASSERT_NE(sharded.shard(0).fault_injector(), nullptr);
  sharded.run();

  EXPECT_EQ(sharded.stats().executed_events,
            reference.simulator().executed_events());
  EXPECT_EQ(sharded.stats().migrations,
            reference.datacenter().total_migrations());
  EXPECT_EQ(sharded.stats().energy_joules,
            reference.datacenter().energy_joules());
  expect_samples_identical(sharded.merged_samples(),
                           reference.collector().samples());

  std::ostringstream reference_csv;
  reference_log.write_csv(reference_csv);
  EXPECT_EQ(events_csv(sharded), reference_csv.str());
}

TEST(ShardedDailyRun, FaultedRunIsDeterministicAcrossThreadCounts) {
  const auto config = faulted_config();

  par::ShardedDailyRun t1(config, {.shards = 4, .threads = 1});
  par::ShardedDailyRun t2(config, {.shards = 4, .threads = 2});
  par::ShardedDailyRun t8(config, {.shards = 4, .threads = 8});
  t1.run();
  t2.run();
  t8.run();

  // The faulted trajectory actually exercises the failure path.
  std::uint64_t crashes = 0;
  for (std::size_t k = 0; k < t1.num_shards(); ++k) {
    ASSERT_NE(t1.shard(k).fault_injector(), nullptr);
    crashes += t1.shard(k).fault_injector()->stats().crashes();
  }
  EXPECT_GT(crashes, 0u);

  for (const par::ShardedDailyRun* other : {&t2, &t8}) {
    EXPECT_EQ(t1.stats().executed_events, other->stats().executed_events);
    EXPECT_EQ(t1.stats().energy_joules, other->stats().energy_joules);
    expect_samples_identical(t1.merged_samples(), other->merged_samples());
    EXPECT_EQ(events_csv(t1), events_csv(*other));
  }
}

// --------------------------------------------------------- checkpoint/resume

TEST(ShardedDailyRun, CheckpointResumeIsBitIdenticalAcrossThreadCounts) {
  const auto config = small_config();

  // Uninterrupted reference: no checkpointing at all.
  par::ShardedDailyRun reference(config, {.shards = 4, .threads = 2});
  reference.run();

  // Checkpointed run: snapshot every 1800 s of sim time; keep a copy of
  // the FIRST snapshot (later barriers overwrite checkpoint_out).
  auto ckpt_config = config;
  ckpt_config.run.checkpoint_out = temp_path("shard.ckpt");
  ckpt_config.run.checkpoint_every_s = 1800.0;
  const std::string first_snapshot = temp_path("shard_first.ckpt");
  par::ShardedDailyRun checkpointed(ckpt_config, {.shards = 4, .threads = 2});
  std::size_t snapshots = 0;
  checkpointed.on_checkpoint = [&](const std::string& path) {
    if (snapshots++ == 0) {
      std::ofstream out(first_snapshot, std::ios::binary);
      out << slurp(path);
    }
  };
  checkpointed.run();
  ASSERT_GT(snapshots, 1u);
  EXPECT_EQ(checkpointed.stats().checkpoints_written, snapshots);

  // Checkpointing must not perturb the trajectory.
  EXPECT_EQ(events_csv(checkpointed), events_csv(reference));
  EXPECT_EQ(checkpointed.stats().energy_joules,
            reference.stats().energy_joules);

  // Resume the first mid-run snapshot at two other thread counts; both
  // must land byte-identical to the uninterrupted reference.
  for (const std::size_t threads : {1u, 8u}) {
    par::ShardedDailyRun resumed(config, {.shards = 4, .threads = threads});
    resumed.restore_snapshot(first_snapshot);
    ASSERT_TRUE(resumed.resumed());
    resumed.run();
    EXPECT_EQ(events_csv(resumed), events_csv(reference));
    EXPECT_EQ(resumed.stats().energy_joules, reference.stats().energy_joules);
    expect_samples_identical(resumed.merged_samples(),
                             reference.merged_samples());
  }

  std::remove(first_snapshot.c_str());
  std::remove(ckpt_config.run.checkpoint_out.c_str());
}

TEST(ShardedDailyRun, FaultedCheckpointResumeReplaysExactly) {
  // The hard case: snapshots must carry every shard's fault-process RNG
  // and pending repair/redeploy state.
  const auto config = faulted_config();

  par::ShardedDailyRun reference(config, {.shards = 2, .threads = 2});
  reference.run();

  auto ckpt_config = config;
  ckpt_config.run.checkpoint_out = temp_path("faulted.ckpt");
  ckpt_config.run.checkpoint_every_s = 3600.0;
  const std::string snapshot = temp_path("faulted_first.ckpt");
  par::ShardedDailyRun checkpointed(ckpt_config, {.shards = 2, .threads = 2});
  bool captured = false;
  checkpointed.on_checkpoint = [&](const std::string& path) {
    if (!captured) {
      captured = true;
      std::ofstream out(snapshot, std::ios::binary);
      out << slurp(path);
    }
  };
  checkpointed.run();
  ASSERT_TRUE(captured);

  par::ShardedDailyRun resumed(config, {.shards = 2, .threads = 1});
  resumed.restore_snapshot(snapshot);
  resumed.run();
  EXPECT_EQ(events_csv(resumed), events_csv(reference));
  EXPECT_EQ(resumed.stats().energy_joules, reference.stats().energy_joules);

  std::remove(snapshot.c_str());
  std::remove(ckpt_config.run.checkpoint_out.c_str());
}

TEST(ShardedDailyRun, ResumeWithoutCadenceKeepsWritingSnapshots) {
  // A resume that names no cadence (run-daily --resume-from X) keeps the
  // cadence stored in the snapshot and writes back over the resumed file,
  // so a run that crashes a second time still has a recent snapshot.
  const auto config = small_config();
  par::ShardedDailyRun reference(config, {.shards = 1, .threads = 1});
  reference.run();

  auto ckpt_config = config;
  ckpt_config.run.checkpoint_out = temp_path("cadence.ckpt");
  ckpt_config.run.checkpoint_every_s = 1800.0;
  const std::string snapshot = temp_path("cadence_first.ckpt");
  par::ShardedDailyRun checkpointed(ckpt_config, {.shards = 1, .threads = 1});
  std::size_t written = 0;
  checkpointed.on_checkpoint = [&](const std::string& path) {
    if (written++ == 0) {
      std::ofstream out(snapshot, std::ios::binary);
      out << slurp(path);
    }
  };
  checkpointed.run();
  ASSERT_GT(written, 1u);
  const std::string first = slurp(snapshot);

  par::ShardedDailyRun resumed(config, {.shards = 1, .threads = 1});
  resumed.restore_snapshot(snapshot);
  std::vector<std::string> paths;
  resumed.on_checkpoint = [&](const std::string& path) {
    paths.push_back(path);
  };
  resumed.run();
  EXPECT_EQ(paths.size(), written - 1);
  for (const std::string& path : paths) EXPECT_EQ(path, snapshot);
  EXPECT_NE(slurp(snapshot), first);  // a newer snapshot replaced the first
  EXPECT_EQ(events_csv(resumed), events_csv(reference));

  // The newer snapshot resumes to the same end state.
  par::ShardedDailyRun again(config, {.shards = 1, .threads = 1});
  again.restore_snapshot(snapshot);
  again.run();
  EXPECT_EQ(events_csv(again), events_csv(reference));

  std::remove(snapshot.c_str());
  std::remove(ckpt_config.run.checkpoint_out.c_str());
}

TEST(ShardedDailyRun, AuditCountersSurviveAResume) {
  // Every audit round fails and heals: a VM nobody owns breaks strict
  // accounting (K=1), so all four counters move and a resume that lost
  // any of them would show.
  auto config = small_config();
  config.run.audit_every_s = 900.0;
  config.run.audit_action = "heal";
  const auto plant_unowned_vm = [](par::ShardedDailyRun& run) {
    (void)run.shard(0).datacenter().create_vm(500.0, 512.0);
  };

  auto ckpt_config = config;
  ckpt_config.run.checkpoint_out = temp_path("audits.ckpt");
  ckpt_config.run.checkpoint_every_s = 1800.0;
  const std::string mid = temp_path("audits_mid.ckpt");
  par::ShardedDailyRun reference(ckpt_config, {.shards = 1, .threads = 1});
  bool captured = false;
  reference.on_checkpoint = [&](const std::string& path) {
    if (captured) return;
    captured = true;
    std::ofstream out(mid, std::ios::binary);
    out << slurp(path);
  };
  reference.start();
  plant_unowned_vm(reference);
  ASSERT_TRUE(reference.run_slice(config.horizon_s));
  reference.finish();
  ASSERT_TRUE(captured);
  const par::ParStats& want = reference.stats();
  ASSERT_GT(want.audits_run, 0u);
  ASSERT_GT(want.audit_failures, 0u);
  ASSERT_GT(want.audit_rounds_failed, 0u);
  ASSERT_GT(want.audit_heals, 0u);

  // From a mid-run snapshot the resumed run audits the rest of the
  // horizon on top of the stored counters; from the final snapshot (taken
  // at the horizon barrier) it audits nothing and reports them as stored.
  for (const std::string& snapshot : {mid, ckpt_config.run.checkpoint_out}) {
    par::ShardedDailyRun resumed(config, {.shards = 1, .threads = 1});
    resumed.restore_snapshot(snapshot);
    resumed.run();
    EXPECT_EQ(resumed.stats().audits_run, want.audits_run);
    EXPECT_EQ(resumed.stats().audit_failures, want.audit_failures);
    EXPECT_EQ(resumed.stats().audit_rounds_failed, want.audit_rounds_failed);
    EXPECT_EQ(resumed.stats().audit_heals, want.audit_heals);
  }

  std::remove(mid.c_str());
  std::remove(ckpt_config.run.checkpoint_out.c_str());
}

TEST(ShardedTelemetry, ExportsTheRobustnessFamilyUnlabeledAtOneShard) {
  // Checkpoint and audit series keep the single-calendar names, without a
  // shard label, next to the coordinator's ecocloud_par_* counters.
  auto config = small_config();
  config.run.checkpoint_out = temp_path("telemetry.ckpt");
  config.run.checkpoint_every_s = 3600.0;
  config.run.audit_every_s = 1800.0;
  par::ShardedDailyRun run(config, {.shards = 1, .threads = 1});
  par::ShardedTelemetry telemetry(run, {});
  run.run();
  telemetry.finalize(config.horizon_s);
  std::ostringstream out;
  obs::write_prometheus(telemetry.registry(), out);
  const std::string text = out.str();
  const std::string written =
      "ecocloud_checkpoints_written_total " +
      std::to_string(run.stats().checkpoints_written) + "\n";
  EXPECT_NE(text.find(written), std::string::npos) << text;
  EXPECT_GT(run.stats().snapshot_bytes_last, 0u);
  EXPECT_NE(text.find("ecocloud_checkpoint_bytes_last " +
                      std::to_string(run.stats().snapshot_bytes_last) + "\n"),
            std::string::npos);
  EXPECT_NE(text.find("ecocloud_checkpoint_save_seconds_total "),
            std::string::npos);
  EXPECT_NE(text.find("ecocloud_audits_run_total " +
                      std::to_string(run.stats().audits_run) + "\n"),
            std::string::npos);
  EXPECT_NE(text.find("ecocloud_audits_failed_total 0\n"), std::string::npos);
  EXPECT_NE(text.find("ecocloud_audit_heals_total 0\n"), std::string::npos);
  EXPECT_EQ(text.find("shard="), std::string::npos);
  std::remove(config.run.checkpoint_out.c_str());
}

TEST(ShardedDailyRun, EventLogIsKeptOnlyWhenAskedFor) {
  // Without an event log the trajectory is unchanged; snapshots record
  // whether the shards were logging, and a logging run refuses to resume
  // a snapshot whose log was never kept.
  const auto config = small_config();
  par::ShardedDailyRun logged(config, {.shards = 2, .threads = 1});
  logged.run();

  auto ckpt_config = config;
  ckpt_config.run.checkpoint_out = temp_path("unlogged.ckpt");
  ckpt_config.run.checkpoint_every_s = 3600.0;
  const std::string snapshot = temp_path("unlogged_first.ckpt");
  par::ShardedDailyRun unlogged(ckpt_config, {.shards = 2, .threads = 1});
  unlogged.set_record_events(false);
  bool captured = false;
  unlogged.on_checkpoint = [&](const std::string& path) {
    if (!captured) {
      captured = true;
      std::ofstream out(snapshot, std::ios::binary);
      out << slurp(path);
    }
  };
  unlogged.run();
  ASSERT_TRUE(captured);
  EXPECT_EQ(unlogged.stats().energy_joules, logged.stats().energy_joules);
  EXPECT_EQ(unlogged.stats().migrations, logged.stats().migrations);
  expect_samples_identical(unlogged.merged_samples(), logged.merged_samples());
  EXPECT_EQ(unlogged.shard(0).event_log().size(), 0u);
  EXPECT_THROW((void)unlogged.merged_events(), std::invalid_argument);
  EXPECT_THROW(unlogged.set_record_events(true), std::invalid_argument);

  par::ShardedDailyRun wants_log(config, {.shards = 2, .threads = 1});
  EXPECT_THROW(wants_log.restore_snapshot(snapshot), ckpt::SnapshotError);

  par::ShardedDailyRun resumed(config, {.shards = 2, .threads = 1});
  resumed.set_record_events(false);
  resumed.restore_snapshot(snapshot);
  resumed.run();
  expect_samples_identical(resumed.merged_samples(), logged.merged_samples());

  std::remove(snapshot.c_str());
  std::remove(ckpt_config.run.checkpoint_out.c_str());
}

TEST(ShardedDailyRun, RestoreRejectsDigestMismatch) {
  const auto config = small_config();
  const std::string snapshot = temp_path("digest.ckpt");
  par::ShardedDailyRun source(config, {.shards = 2, .threads = 1});
  source.save_snapshot(snapshot);

  // Different shard count -> different trajectory -> refuse to restore.
  par::ShardedDailyRun wrong_shards(config, {.shards = 4, .threads = 1});
  EXPECT_THROW(wrong_shards.restore_snapshot(snapshot), std::exception);

  // Different sync interval too.
  par::ShardedDailyRun wrong_sync(
      config, {.shards = 2, .threads = 1, .sync_interval_s = 600.0});
  EXPECT_THROW(wrong_sync.restore_snapshot(snapshot), std::exception);

  std::remove(snapshot.c_str());
}

TEST(ShardedDailyRun, RefusesSingleCalendarSnapshots) {
  // A snapshot of a bare DailyScenario (the layout run-daily wrote before
  // every run went through the shard stack) lacks the shard count in its
  // digest and the coordinator section: refused cleanly, never half-applied.
  const auto config = small_config();
  const std::string snapshot = temp_path("single_calendar.ckpt");
  {
    scenario::DailyScenario daily(config);
    ckpt::CheckpointManager manager(daily.simulator());
    daily.register_checkpoint(manager);
    daily.start();
    daily.run_slice(sim::kHour);
    manager.save(snapshot);
  }
  par::ShardedDailyRun run(config, {.shards = 1, .threads = 1});
  EXPECT_THROW(run.restore_snapshot(snapshot), ckpt::SnapshotError);
  EXPECT_FALSE(run.resumed());
  std::remove(snapshot.c_str());
}

TEST(ShardedDailyRun, RejectsCorruptShardSectionCleanly) {
  // A section with a valid CRC but ids outside the shard's plan must throw
  // at restore instead of indexing out of bounds later.
  const auto config = small_config();
  const std::string good = temp_path("shard_section_good.ckpt");
  const std::string bad = temp_path("shard_section_bad.ckpt");
  par::ShardedDailyRun source(config, {.shards = 2, .threads = 1});
  source.save_snapshot(good);
  const std::size_t servers = source.plan().servers_in(0);

  struct ShardSection {
    std::vector<std::uint64_t> vm_trace;
    std::uint64_t last_deployed = 0;
    std::vector<std::uint64_t> wish_servers;
    std::uint64_t flags = 0;
  };
  const ckpt::Snapshot original = ckpt::read_snapshot_file(good);
  const ckpt::SnapshotSection* section = original.find("s0.shard");
  ASSERT_NE(section, nullptr);
  ShardSection parsed;
  {
    util::BinReader r(section->payload);
    parsed.vm_trace.resize(static_cast<std::size_t>(r.u64()));
    for (auto& row : parsed.vm_trace) row = r.u64();
    parsed.last_deployed = r.u64();
    ASSERT_EQ(r.u64(), 0u);  // barrier snapshots hold no pending wishes
    parsed.flags = r.u64();
    ASSERT_EQ(parsed.flags, servers);
  }
  const auto restore_with = [&](const ShardSection& forged) {
    util::BinWriter w;
    w.u64(forged.vm_trace.size());
    for (std::uint64_t row : forged.vm_trace) w.u64(row);
    w.u64(forged.last_deployed);
    w.u64(forged.wish_servers.size());
    for (std::uint64_t server : forged.wish_servers) {
      w.f64(0.0);
      w.u64(server);
      w.boolean(false);
    }
    w.u64(forged.flags);
    for (std::uint64_t i = 0; i < forged.flags; ++i) w.boolean(false);
    ckpt::Snapshot snapshot;
    for (const ckpt::SnapshotSection& s : original.sections) {
      snapshot.add(s.name, s.name == "s0.shard" ? w.take() : s.payload);
    }
    ckpt::write_snapshot_file(snapshot, bad);
    par::ShardedDailyRun target(config, {.shards = 2, .threads = 1});
    target.restore_snapshot(bad);
  };

  ASSERT_NO_THROW(restore_with(parsed));  // the round trip itself is clean
  auto wish_out_of_range = parsed;
  wish_out_of_range.wish_servers = {servers};
  EXPECT_THROW(restore_with(wish_out_of_range), ckpt::SnapshotError);
  auto row_out_of_range = parsed;
  row_out_of_range.vm_trace.push_back(config.num_vms);
  EXPECT_THROW(restore_with(row_out_of_range), ckpt::SnapshotError);
  auto wrong_slice_size = parsed;
  wrong_slice_size.flags = servers + 1;
  EXPECT_THROW(restore_with(wrong_slice_size), ckpt::SnapshotError);

  std::remove(good.c_str());
  std::remove(bad.c_str());
}

TEST(ShardedDailyRun, RejectsCorruptCoordinatorSectionCleanly) {
  const auto config = small_config();
  const std::string good = temp_path("coordinator_good.ckpt");
  const std::string bad = temp_path("coordinator_bad.ckpt");
  par::ShardedDailyRun source(config, {.shards = 2, .threads = 1});
  source.save_snapshot(good);
  const ckpt::Snapshot original = ckpt::read_snapshot_file(good);

  const auto restore_with = [&](const std::string& payload,
                                const std::string& section = "coordinator") {
    ckpt::Snapshot snapshot;
    for (const ckpt::SnapshotSection& s : original.sections) {
      snapshot.add(s.name, s.name == section ? payload : s.payload);
    }
    ckpt::write_snapshot_file(snapshot, bad);
    par::ShardedDailyRun target(config, {.shards = 2, .threads = 1});
    target.restore_snapshot(bad);
  };
  const std::string payload = original.find("coordinator")->payload;
  ASSERT_NO_THROW(restore_with(payload));
  // A trailing byte (the layout that still stored a warmup flag) and an
  // event count no payload could hold are both refused, not half-applied.
  EXPECT_THROW(restore_with(payload + '\0'), ckpt::SnapshotError);
  util::BinWriter huge;
  for (int i = 0; i < 7; ++i) huge.u64(0);  // clock, counters
  huge.u64(std::uint64_t{1} << 60);         // coordinator event count
  EXPECT_THROW(restore_with(huge.take()), ckpt::SnapshotError);
  // A cadence no run could have written (the safe_points section leads
  // with it).
  std::string negative_cadence = original.find("safe_points")->payload;
  util::BinWriter cadence;
  cadence.f64(-1.0);
  negative_cadence.replace(0, 8, cadence.take());
  EXPECT_THROW(restore_with(negative_cadence, "safe_points"), ckpt::SnapshotError);

  std::remove(good.c_str());
  std::remove(bad.c_str());
}

// ------------------------------------------------------------ slicing

TEST(ShardedDailyRun, SlicedRunIsByteIdenticalToOneShotRun) {
  // Slices of 300 s, 1800 s and 1000 s (not a multiple of the sync
  // interval: the slice runs on to the next barrier) must all produce the
  // bytes and the counters of one run(), barriers included.
  const auto config = small_config();
  for (const std::size_t shards : {1u, 4u}) {
    par::ShardedDailyRun reference(config, {.shards = shards, .threads = 2});
    reference.run();
    for (const sim::SimTime step : {300.0, 1800.0, 1000.0}) {
      par::ShardedDailyRun sliced(config, {.shards = shards, .threads = 2});
      sliced.start();
      std::size_t slices = 1;
      while (!sliced.run_slice(sliced.now() + step)) {
        ++slices;
        EXPECT_EQ(std::fmod(sliced.now(), 300.0), 0.0) << sliced.now();
      }
      sliced.finish();
      EXPECT_GT(slices, 1u);
      EXPECT_EQ(sliced.executed_events(), reference.stats().executed_events);
      EXPECT_EQ(events_csv(sliced), events_csv(reference))
          << shards << " shards, " << step << " s slices";
      expect_samples_identical(sliced.merged_samples(),
                               reference.merged_samples());
      expect_stats_identical(sliced.stats(), reference.stats());
    }
  }
}

TEST(ShardedDailyRun, SingleWorkerStartsNoThread) {
  // With one worker the epochs run on the calling thread, so a K=1 run
  // (every campaign the server runs) must not spawn an idle pool thread.
  const std::filesystem::path tasks("/proc/self/task");
  if (!std::filesystem::exists(tasks)) GTEST_SKIP() << "no /proc";
  const auto count_threads = [&tasks] {
    return std::distance(std::filesystem::directory_iterator(tasks),
                         std::filesystem::directory_iterator());
  };
  const auto before = count_threads();
  par::ShardedDailyRun run(small_config(), {.shards = 1, .threads = 0});
  EXPECT_EQ(count_threads(), before);
  EXPECT_EQ(run.num_threads(), 1u);
}

// -------------------------------------------------- epoch-order explorer

TEST(ShardedDailyRun, EpochExecutionOrderCannotChangeTrajectory) {
  // Run K=3 under adversarial epoch interleavings: identity, reversed,
  // and a per-epoch rotation. If any shard peeked at another shard's
  // in-epoch state, some permutation would diverge.
  const auto config = small_config();

  par::ShardedDailyRun reference(config, {.shards = 3, .threads = 2});
  reference.run();
  const std::string reference_csv = events_csv(reference);

  using Order = std::vector<std::size_t>;
  const std::vector<
      std::function<Order(std::uint64_t, std::size_t)>>
      orders = {
          [](std::uint64_t, std::size_t k) {
            Order order(k);
            for (std::size_t i = 0; i < k; ++i) order[i] = i;
            return order;
          },
          [](std::uint64_t, std::size_t k) {
            Order order(k);
            for (std::size_t i = 0; i < k; ++i) order[i] = k - 1 - i;
            return order;
          },
          [](std::uint64_t epoch, std::size_t k) {
            Order order(k);
            for (std::size_t i = 0; i < k; ++i) {
              order[i] = (i + epoch) % k;
            }
            return order;
          },
      };

  for (const auto& order : orders) {
    par::ShardedDailyRun explored(
        config, {.shards = 3, .threads = 1, .epoch_order = order});
    explored.run();
    EXPECT_EQ(events_csv(explored), reference_csv);
    EXPECT_EQ(explored.stats().energy_joules, reference.stats().energy_joules);
    expect_samples_identical(explored.merged_samples(),
                             reference.merged_samples());
  }
}

TEST(ShardedDailyRun, RejectsInvalidEpochOrder) {
  const auto config = small_config();
  // Duplicate index: not a permutation.
  par::ShardedDailyRun run(
      config, {.shards = 2, .threads = 1, .epoch_order = [](std::uint64_t,
                                                            std::size_t) {
                 return std::vector<std::size_t>{0, 0};
               }});
  EXPECT_THROW(run.run(), std::exception);
}

// ------------------------------------------------------------ barrier audits

TEST(ShardedDailyRun, BarrierAuditsPassAndDoNotPerturbTheTrajectory) {
  const auto config = small_config();

  par::ShardedDailyRun reference(config, {.shards = 4, .threads = 2});
  reference.run();

  auto audited_config = config;
  audited_config.run.audit_every_s = 600.0;
  audited_config.run.audit_action = "log";
  par::ShardedDailyRun audited(audited_config, {.shards = 4, .threads = 2});
  audited.run();

  EXPECT_GT(audited.stats().audits_run, 0u);
  EXPECT_EQ(audited.stats().audit_failures, 0u);
  EXPECT_EQ(events_csv(audited), events_csv(reference));
  EXPECT_EQ(audited.stats().energy_joules, reference.stats().energy_joules);
}

TEST(ShardedDailyRun, FaultedBarrierAuditsStayClean) {
  // Crash/repair churn plus cross-shard hand-offs must not trip the
  // cross-shard ownership or conservation checks.
  auto config = faulted_config();
  config.run.audit_every_s = 900.0;
  config.run.audit_action = "log";
  par::ShardedDailyRun run(config, {.shards = 4, .threads = 2});
  run.run();
  EXPECT_GT(run.stats().audits_run, 0u);
  EXPECT_EQ(run.stats().audit_failures, 0u);
}

// ---------------------------------------------------------- event-log merge

TEST(EventMerge, EqualTimestampsKeepStreamOrder) {
  using metrics::Event;
  using metrics::EventKind;
  // Three streams, all rows at the same instant: the merge must emit
  // stream 0's rows first, then stream 1's, then stream 2's, keeping the
  // within-stream order — the tie-break that makes shard stitching a pure
  // function of (time, shard index).
  const std::vector<Event> s0 = {
      {100.0, EventKind::kAssignment, 0, 10, false},
      {100.0, EventKind::kAssignment, 1, 11, false}};
  const std::vector<Event> s1 = {
      {100.0, EventKind::kActivation, dc::kNoVm, 20, false}};
  const std::vector<Event> s2 = {
      {100.0, EventKind::kMigrationStart, 2, 30, true}};
  const std::vector<par::EventStream> streams = {
      {&s0, {}}, {&s1, {}}, {&s2, {}}};

  const auto merged = par::merge_event_streams(streams);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].server, 10u);
  EXPECT_EQ(merged[1].server, 11u);
  EXPECT_EQ(merged[2].server, 20u);
  EXPECT_EQ(merged[3].server, 30u);

  // Deterministic: merging twice yields the same rows.
  const auto again = par::merge_event_streams(streams);
  ASSERT_EQ(again.size(), merged.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(again[i].time, merged[i].time);
    EXPECT_EQ(again[i].kind, merged[i].kind);
    EXPECT_EQ(again[i].server, merged[i].server);
  }
}

TEST(EventMerge, InterleavesStrictlyByTimeAcrossStreams) {
  using metrics::Event;
  using metrics::EventKind;
  const std::vector<Event> s0 = {{1.0, EventKind::kAssignment, 0, 0, false},
                                 {5.0, EventKind::kAssignment, 1, 0, false}};
  const std::vector<Event> s1 = {{2.0, EventKind::kAssignment, 2, 1, false},
                                 {4.0, EventKind::kAssignment, 3, 1, false}};
  const auto merged = par::merge_event_streams({{&s0, {}}, {&s1, {}}});
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].time, 1.0);
  EXPECT_EQ(merged[1].time, 2.0);
  EXPECT_EQ(merged[2].time, 4.0);
  EXPECT_EQ(merged[3].time, 5.0);
}

TEST(EventMerge, TranslationRoundTripsLocalIdsThroughShardPlan) {
  using metrics::Event;
  using metrics::EventKind;
  constexpr std::size_t kShards = 3;
  const par::ShardPlan plan(kShards, 12, 30);

  // Each shard stream holds LOCAL ids; translation lifts them to global
  // via the plan. Round-trip: the merged global ids map back to exactly
  // the (shard, local) pair that emitted them.
  std::vector<std::vector<Event>> local(kShards);
  for (std::size_t k = 0; k < kShards; ++k) {
    for (dc::ServerId s = 0; s < plan.servers_in(k); ++s) {
      local[k].push_back(
          {static_cast<double>(k), EventKind::kActivation, dc::kNoVm, s,
           false});
    }
  }
  std::vector<par::EventStream> streams;
  for (std::size_t k = 0; k < kShards; ++k) {
    streams.push_back({&local[k], [&plan, k](const Event& raw) {
                         Event e = raw;
                         e.server = plan.global_server(k, raw.server);
                         return e;
                       }});
  }

  const auto merged = par::merge_event_streams(streams);
  ASSERT_EQ(merged.size(), 12u);
  std::vector<bool> seen(12, false);
  for (const Event& e : merged) {
    const std::size_t k = plan.shard_of_server(e.server);
    EXPECT_EQ(static_cast<double>(k), e.time);  // emitted by that shard
    EXPECT_EQ(plan.global_server(k, plan.local_server(e.server)), e.server);
    EXPECT_FALSE(seen[e.server]);
    seen[e.server] = true;
  }
}

TEST(EventMerge, CsvMatchesEventLogFormat) {
  using metrics::Event;
  using metrics::EventKind;
  // -1 sentinels and precision must match EventLog::write_csv exactly;
  // the K=1 bit-identity tests depend on it, pin it directly too.
  const std::vector<Event> rows = {
      {0.125, EventKind::kActivation, dc::kNoVm, 3, false},
      {7.5, EventKind::kMigrationStart, 42, 1, true}};
  std::ostringstream out;
  metrics::write_events_csv(out, rows);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("time_s,kind,vm,server,is_high"), std::string::npos);
  EXPECT_NE(csv.find(",-1,3,"), std::string::npos);  // kNoVm -> -1
  EXPECT_NE(csv.find(",42,1,1"), std::string::npos);
}

// ---------------------------------------------- per-shard streaming banks

TEST(ShardedDailyRun, StreamingBanksMatchMaterializedSharded) {
  // The tentpole equivalence (DESIGN.md §17): a sharded run driven from
  // per-shard streaming cursor banks is bit-identical to the same run
  // driven from the shared materialized TraceSet. small_config at K=4
  // produces cross-shard hand-offs, so the adoption path (copying a row's
  // cursor from its owner bank at a barrier) is genuinely exercised.
  const auto config = small_config();
  par::ShardedDailyRun materialized(config, {.shards = 4, .threads = 2});
  materialized.run();
  ASSERT_GT(materialized.stats().cross_shard_migrations, 0u);

  auto streaming_config = config;
  streaming_config.streaming_traces = true;
  par::ShardedDailyRun streaming(streaming_config, {.shards = 4, .threads = 2});
  for (std::size_t k = 0; k < streaming.num_shards(); ++k) {
    // streaming_traces is honored — never silently downgraded to a
    // materialized TraceSet behind the operator's back.
    ASSERT_TRUE(streaming.shard(k).daily().trace_source().is_streaming());
  }
  streaming.run();

  EXPECT_EQ(events_csv(streaming), events_csv(materialized));
  EXPECT_EQ(streaming.stats().energy_joules,
            materialized.stats().energy_joules);
  EXPECT_EQ(streaming.stats().cross_shard_migrations,
            materialized.stats().cross_shard_migrations);
  expect_samples_identical(streaming.merged_samples(),
                           materialized.merged_samples());
}

TEST(ShardedDailyRun, StreamingSingleShardMatchesSingleThreadedStreaming) {
  auto config = small_config();
  config.streaming_traces = true;

  scenario::DailyScenario reference(config);
  metrics::EventLog reference_log;
  reference_log.attach(*reference.ecocloud());
  reference.run();

  par::ShardedDailyRun sharded(config, {.shards = 1, .threads = 1});
  ASSERT_TRUE(sharded.shard(0).daily().trace_source().is_streaming());
  sharded.run();

  std::ostringstream reference_csv;
  reference_log.write_csv(reference_csv);
  EXPECT_EQ(events_csv(sharded), reference_csv.str());
  EXPECT_EQ(sharded.stats().energy_joules,
            reference.datacenter().energy_joules());
  expect_samples_identical(sharded.merged_samples(),
                           reference.collector().samples());
}

TEST(ShardedDailyRun, FaultedStreamingMatchesFaultedMaterialized) {
  // Crash/repair churn plus redeploys on top of the cursor banks: the
  // fault draws live on RNG stream 7, trace generation on the shared
  // stream, so the trajectories must still agree byte for byte.
  const auto config = faulted_config();
  par::ShardedDailyRun materialized(config, {.shards = 4, .threads = 2});
  materialized.run();

  auto streaming_config = config;
  streaming_config.streaming_traces = true;
  par::ShardedDailyRun streaming(streaming_config, {.shards = 4, .threads = 2});
  streaming.run();

  EXPECT_EQ(events_csv(streaming), events_csv(materialized));
  EXPECT_EQ(streaming.stats().energy_joules,
            materialized.stats().energy_joules);
  expect_samples_identical(streaming.merged_samples(),
                           materialized.merged_samples());
}

TEST(ShardedDailyRun, StreamingCheckpointResumeReplaysExactly) {
  // Restore path: banks regenerate at step 0, fast-forward to the snapshot
  // barrier, and the coordinator re-adopts every cross-shard row from its
  // owner bank before the run continues.
  auto config = small_config();
  config.streaming_traces = true;

  par::ShardedDailyRun reference(config, {.shards = 4, .threads = 2});
  reference.run();
  // The resume below is only a real test if rows cross shards.
  ASSERT_GT(reference.stats().cross_shard_migrations, 0u);

  auto ckpt_config = config;
  ckpt_config.run.checkpoint_out = temp_path("stream.ckpt");
  ckpt_config.run.checkpoint_every_s = 1800.0;
  const std::string first_snapshot = temp_path("stream_first.ckpt");
  const std::string late_snapshot = temp_path("stream_late.ckpt");
  par::ShardedDailyRun checkpointed(ckpt_config, {.shards = 4, .threads = 2});
  std::size_t snapshots = 0;
  checkpointed.on_checkpoint = [&](const std::string& path) {
    // Keep the first snapshot (few adopted rows) and the latest one (many).
    std::ofstream out(snapshots == 0 ? first_snapshot : late_snapshot,
                      std::ios::binary);
    out << slurp(path);
    ++snapshots;
  };
  checkpointed.run();
  ASSERT_GT(snapshots, 1u);
  EXPECT_EQ(events_csv(checkpointed), events_csv(reference));

  for (const std::string& snapshot : {first_snapshot, late_snapshot}) {
    par::ShardedDailyRun resumed(config, {.shards = 4, .threads = 1});
    resumed.restore_snapshot(snapshot);
    ASSERT_TRUE(resumed.resumed());
    resumed.run();
    EXPECT_EQ(events_csv(resumed), events_csv(reference));
    EXPECT_EQ(resumed.stats().energy_joules, reference.stats().energy_joules);
    expect_samples_identical(resumed.merged_samples(),
                             reference.merged_samples());
  }

  std::remove(first_snapshot.c_str());
  std::remove(late_snapshot.c_str());
  std::remove(ckpt_config.run.checkpoint_out.c_str());
}

TEST(ShardedDailyRun, ShardedSnapshotsArePortableAcrossTraceMemoryModes) {
  // Mirror of the single-threaded cross-mode test (ckpt_test): a snapshot
  // written by a materialized K=2 run restores into a streaming K=2 run —
  // the banks carry no snapshot state and streaming_traces is deliberately
  // not in the digest.
  const auto config = small_config();
  par::ShardedDailyRun reference(config, {.shards = 2, .threads = 2});
  reference.run();

  auto ckpt_config = config;
  ckpt_config.run.checkpoint_out = temp_path("xmode_shard.ckpt");
  ckpt_config.run.checkpoint_every_s = 1800.0;
  const std::string snapshot = temp_path("xmode_shard_first.ckpt");
  par::ShardedDailyRun checkpointed(ckpt_config, {.shards = 2, .threads = 2});
  bool captured = false;
  checkpointed.on_checkpoint = [&](const std::string& path) {
    if (!captured) {
      captured = true;
      std::ofstream out(snapshot, std::ios::binary);
      out << slurp(path);
    }
  };
  checkpointed.run();
  ASSERT_TRUE(captured);

  auto streaming_config = config;
  streaming_config.streaming_traces = true;
  par::ShardedDailyRun resumed(streaming_config, {.shards = 2, .threads = 1});
  resumed.restore_snapshot(snapshot);
  ASSERT_TRUE(resumed.resumed());
  resumed.run();
  EXPECT_EQ(events_csv(resumed), events_csv(reference));
  EXPECT_EQ(resumed.stats().energy_joules, reference.stats().energy_joules);

  std::remove(snapshot.c_str());
  std::remove(ckpt_config.run.checkpoint_out.c_str());
}
