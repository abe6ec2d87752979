// Tests for the checkpoint/restore subsystem: the snapshot container's
// rejection of corrupted/foreign files, bit-identical resume of both
// scenarios (event log bytes, metric samples and every accumulated
// aggregate), the consistency rules that refuse to resume into different
// wiring, the safe-point schedule, and the runtime invariant auditor +
// watchdog.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ecocloud/ckpt/auditor.hpp"
#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/ckpt/safe_points.hpp"
#include "ecocloud/ckpt/snapshot_io.hpp"
#include "ecocloud/ckpt/watchdog.hpp"
#include "ecocloud/metrics/event_log.hpp"
#include "ecocloud/scenario/scenario.hpp"
#include "ecocloud/util/rng.hpp"
#include "ecocloud/util/snapshot.hpp"

using namespace ecocloud;

namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "ckpt_test_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- Snapshot container ------------------------------------------------------

ckpt::Snapshot sample_snapshot() {
  ckpt::Snapshot snapshot;
  snapshot.add("alpha", std::string("hello\0world", 11));
  snapshot.add("beta", "");
  std::string blob(4096, '\0');
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<char>(i * 31 + 7);
  }
  snapshot.add("gamma", blob);
  return snapshot;
}

TEST(SnapshotIo, RoundTripPreservesSections) {
  const std::string path = temp_path("roundtrip.ckpt");
  const ckpt::Snapshot written = sample_snapshot();
  ckpt::write_snapshot_file(written, path);

  const ckpt::Snapshot read = ckpt::read_snapshot_file(path);
  ASSERT_EQ(read.sections.size(), written.sections.size());
  for (std::size_t i = 0; i < written.sections.size(); ++i) {
    EXPECT_EQ(read.sections[i].name, written.sections[i].name);
    EXPECT_EQ(read.sections[i].payload, written.sections[i].payload);
  }
  std::remove(path.c_str());
}

TEST(SnapshotIo, AtomicWriteLeavesNoTemporary) {
  const std::string path = temp_path("atomic.ckpt");
  ckpt::write_snapshot_file(sample_snapshot(), path);
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(SnapshotIo, DuplicateSectionNameRejected) {
  ckpt::Snapshot snapshot;
  snapshot.add("twice", "a");
  EXPECT_THROW(snapshot.add("twice", "b"), ckpt::SnapshotError);
}

TEST(SnapshotIo, MissingFileRejected) {
  EXPECT_THROW((void)ckpt::read_snapshot_file(temp_path("does_not_exist.ckpt")),
               ckpt::SnapshotError);
}

TEST(SnapshotIo, BadMagicRejected) {
  const std::string path = temp_path("magic.ckpt");
  ckpt::write_snapshot_file(sample_snapshot(), path);
  std::string bytes = read_file(path);
  bytes[0] = 'X';
  write_file(path, bytes);
  try {
    (void)ckpt::read_snapshot_file(path);
    FAIL() << "bad magic accepted";
  } catch (const ckpt::SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("bad magic"), std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(SnapshotIo, WrongFormatVersionRejected) {
  const std::string path = temp_path("version.ckpt");
  ckpt::write_snapshot_file(sample_snapshot(), path);
  std::string bytes = read_file(path);
  // Little-endian u32 version immediately after the 8-byte magic.
  bytes[sizeof(ckpt::kSnapshotMagic)] =
      static_cast<char>(ckpt::kFormatVersion + 1);
  write_file(path, bytes);
  try {
    (void)ckpt::read_snapshot_file(path);
    FAIL() << "wrong version accepted";
  } catch (const ckpt::SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("format version"), std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(SnapshotIo, FlippedPayloadBitFailsCrc) {
  const std::string path = temp_path("crc.ckpt");
  ckpt::write_snapshot_file(sample_snapshot(), path);
  std::string bytes = read_file(path);
  // The tail of the file is inside the last section's payload.
  bytes[bytes.size() - 10] ^= 0x20;
  write_file(path, bytes);
  try {
    (void)ckpt::read_snapshot_file(path);
    FAIL() << "corrupted payload accepted";
  } catch (const ckpt::SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("CRC32"), std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(SnapshotIo, TruncatedFileRejectedAtEveryLength) {
  const std::string path = temp_path("truncated.ckpt");
  ckpt::write_snapshot_file(sample_snapshot(), path);
  const std::string bytes = read_file(path);
  // Every proper prefix must be rejected cleanly (no UB, no acceptance):
  // cutting inside the header, a section name, a length field, or a payload.
  for (std::size_t keep : {std::size_t{0}, std::size_t{4}, std::size_t{9},
                           std::size_t{30}, bytes.size() / 2, bytes.size() - 1}) {
    ASSERT_LT(keep, bytes.size());
    write_file(path, bytes.substr(0, keep));
    EXPECT_THROW((void)ckpt::read_snapshot_file(path), ckpt::SnapshotError)
        << "prefix of " << keep << " bytes accepted";
  }
  std::remove(path.c_str());
}

TEST(SnapshotIo, TrailingGarbageRejected) {
  const std::string path = temp_path("trailing.ckpt");
  ckpt::write_snapshot_file(sample_snapshot(), path);
  write_file(path, read_file(path) + "extra");
  EXPECT_THROW((void)ckpt::read_snapshot_file(path), ckpt::SnapshotError);
  std::remove(path.c_str());
}

// --- unordered_map iteration-order restore -----------------------------------

// Bit-exact resume hinges on restoring hashtable iteration order, which
// save_unordered/load_unordered achieve (on libstdc++) by re-inserting in
// reverse saved order into a table with the saved bucket count. Property:
// arbitrary insert/erase histories round-trip to the same iteration order.
TEST(SnapshotUtil, UnorderedMapIterationOrderSurvivesRoundTrip) {
  util::Rng rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    std::unordered_map<std::uint64_t, double> original;
    const std::size_t inserts = 1 + rng.uniform_int(400);
    for (std::size_t i = 0; i < inserts; ++i) {
      original[rng.uniform_int(1000)] = rng.uniform();
      if (!original.empty() && rng.bernoulli(0.2)) {
        original.erase(original.begin());
      }
    }

    util::BinWriter w;
    util::save_unordered(w, original,
                         [](util::BinWriter& out, std::uint64_t key, double value) {
                           out.u64(key);
                           out.f64(value);
                         });
    std::unordered_map<std::uint64_t, double> restored;
    util::BinReader r(w.buffer());
    util::load_unordered(r, restored, [](util::BinReader& in) {
      const std::uint64_t key = in.u64();
      const double value = in.f64();
      return std::make_pair(key, value);
    });

    ASSERT_EQ(restored.size(), original.size());
    ASSERT_EQ(restored.bucket_count(), original.bucket_count());
    auto it = original.begin();
    auto jt = restored.begin();
    for (; it != original.end(); ++it, ++jt) {
      EXPECT_EQ(jt->first, it->first);
      EXPECT_EQ(jt->second, it->second);
    }
  }
}

// Matching immediately after restore is not enough: the restored table must
// also stay in lockstep with the original under further identical mutation,
// which requires the rehash policy (growth trajectory) to survive the round
// trip too. The critical case is a map snapshotted while still EMPTY —
// libstdc++'s never-used table sits in a single-bucket state that rehash()
// cannot recreate, and a restored 2-bucket table grows 2, 5, 11, ... while
// the original grows 13, 29, ..., diverging iteration order hours after
// resume (found by the crash-resume CI rehearsal; see load_unordered).
TEST(SnapshotUtil, RestoredMapStaysInLockstepUnderFurtherMutation) {
  util::Rng rng(8086);
  const auto save_item = [](util::BinWriter& out, std::uint64_t key,
                            double value) {
    out.u64(key);
    out.f64(value);
  };
  const auto load_item = [](util::BinReader& in) {
    const std::uint64_t key = in.u64();
    const double value = in.f64();
    return std::make_pair(key, value);
  };
  for (int trial = 0; trial < 20; ++trial) {
    std::unordered_map<std::uint64_t, double> original;
    // Trial 0 snapshots a virgin (never used) map; later trials snapshot
    // after a random history that may or may not leave it empty.
    const std::size_t inserts = trial == 0 ? 0 : rng.uniform_int(60);
    for (std::size_t i = 0; i < inserts; ++i) {
      original[rng.uniform_int(500)] = rng.uniform();
      if (!original.empty() && rng.bernoulli(0.4)) {
        original.erase(original.begin());
      }
    }

    util::BinWriter w;
    util::save_unordered(w, original, save_item);
    std::unordered_map<std::uint64_t, double> restored;
    util::BinReader r(w.buffer());
    util::load_unordered(r, restored, load_item);
    ASSERT_EQ(restored.bucket_count(), original.bucket_count());

    // Identical op sequence on both; structure must never diverge.
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t key = rng.uniform_int(500);
      const double value = rng.uniform();
      original[key] = value;
      restored[key] = value;
      if (original.size() > 2 && rng.bernoulli(0.3)) {
        original.erase(original.begin());
        restored.erase(restored.begin());
      }
      ASSERT_EQ(restored.size(), original.size());
      ASSERT_EQ(restored.bucket_count(), original.bucket_count())
          << "trial " << trial << " step " << step;
      auto it = original.begin();
      auto jt = restored.begin();
      for (; it != original.end(); ++it, ++jt) {
        ASSERT_EQ(jt->first, it->first) << "trial " << trial << " step " << step;
      }
    }
  }
}

// --- Bit-identical resume: daily scenario ------------------------------------

namespace {

/// Drive a started or restored \p scenario to its horizon in slices of
/// \p period_s sim seconds and finish it, calling \p at_boundary(t) at every
/// slice boundary t up to the horizon: the safe points at which
/// run-consolidation and the sharded runner checkpoint and audit.
template <typename Scenario, typename Fn>
void run_sliced(Scenario& scenario, sim::SimTime period_s, Fn at_boundary) {
  const sim::SimTime horizon = scenario.config().horizon_s;
  // Boundaries k * period_s with a counted k, so they strictly increase
  // even where rounding makes k * period_s / period_s fall below k.
  for (double k = std::floor(scenario.simulator().now() / period_s) + 1.0;;
       k += 1.0) {
    const sim::SimTime t = k * period_s;
    const bool done = scenario.run_slice(t);
    if (t <= horizon) at_boundary(t);
    if (done) break;
  }
  scenario.finish();
}

/// Copy every snapshot \p manager saves to a numbered file next to \p path.
void keep_copies(ckpt::CheckpointManager& manager, const std::string& path,
                 std::vector<std::string>& copies) {
  manager.on_saved = [&copies, path](const std::string& saved) {
    const std::string copy = path + "." + std::to_string(copies.size());
    std::ofstream out(copy, std::ios::binary | std::ios::trunc);
    std::ifstream in(saved, std::ios::binary);
    out << in.rdbuf();
    copies.push_back(copy);
  };
}

scenario::DailyConfig resume_daily_config() {
  scenario::DailyConfig config;
  config.fleet.num_servers = 48;
  config.num_vms = 600;
  config.horizon_s = 6.0 * sim::kHour;
  config.warmup_s = 1.0 * sim::kHour;
  config.seed = 7;
  // Exercise every fault code path so their RNG streams, redeploy queue
  // and in-flight repairs are part of what resume must reproduce.
  config.faults.server_mtbf_s = 4.0 * sim::kHour;
  config.faults.server_mttr_s = 600.0;
  config.faults.migration_abort_prob = 0.05;
  config.faults.boot_failure_prob = 0.10;
  config.faults.invitation_loss_prob = 0.02;
  config.faults.reply_loss_prob = 0.02;
  return config;
}

/// Everything a resumed run must reproduce bit for bit.
struct DailyResult {
  double energy_joules = 0.0;
  double vm_seconds = 0.0;
  double overload_vm_seconds = 0.0;
  std::uint64_t migrations = 0;
  std::uint64_t activations = 0;
  std::uint64_t hibernations = 0;
  std::uint64_t messages = 0;
  std::uint64_t executed_events = 0;
  std::string event_csv;
  std::vector<metrics::Sample> samples;
};

DailyResult daily_result(scenario::DailyScenario& daily,
                         const metrics::EventLog& log) {
  DailyResult result;
  const dc::DataCenter& d = daily.datacenter();
  result.energy_joules = d.energy_joules();
  result.vm_seconds = d.vm_seconds();
  result.overload_vm_seconds = d.overload_vm_seconds();
  result.migrations = d.total_migrations();
  result.activations = d.total_activations();
  result.hibernations = d.total_hibernations();
  result.messages = daily.ecocloud()->messages().total();
  result.executed_events = daily.simulator().executed_events();
  std::ostringstream csv;
  log.write_csv(csv);
  result.event_csv = csv.str();
  result.samples = daily.collector().samples();
  return result;
}

void expect_same(const DailyResult& resumed, const DailyResult& reference) {
  // Exact comparisons throughout: resume must be bit-identical, so even
  // doubles compare with ==.
  EXPECT_EQ(resumed.energy_joules, reference.energy_joules);
  EXPECT_EQ(resumed.vm_seconds, reference.vm_seconds);
  EXPECT_EQ(resumed.overload_vm_seconds, reference.overload_vm_seconds);
  EXPECT_EQ(resumed.migrations, reference.migrations);
  EXPECT_EQ(resumed.activations, reference.activations);
  EXPECT_EQ(resumed.hibernations, reference.hibernations);
  EXPECT_EQ(resumed.messages, reference.messages);
  EXPECT_EQ(resumed.executed_events, reference.executed_events);
  EXPECT_EQ(resumed.event_csv, reference.event_csv);
  ASSERT_EQ(resumed.samples.size(), reference.samples.size());
  for (std::size_t i = 0; i < reference.samples.size(); ++i) {
    EXPECT_EQ(resumed.samples[i].time, reference.samples[i].time);
    EXPECT_EQ(resumed.samples[i].active_servers, reference.samples[i].active_servers);
    EXPECT_EQ(resumed.samples[i].booting_servers,
              reference.samples[i].booting_servers);
    EXPECT_EQ(resumed.samples[i].overall_load, reference.samples[i].overall_load);
    EXPECT_EQ(resumed.samples[i].power_w, reference.samples[i].power_w);
    EXPECT_EQ(resumed.samples[i].overload_percent,
              reference.samples[i].overload_percent);
    EXPECT_EQ(resumed.samples[i].window_energy_j,
              reference.samples[i].window_energy_j);
  }
}

void register_event_log(ckpt::CheckpointManager& manager, metrics::EventLog& log) {
  manager.add_section(
      "event_log", [&log](util::BinWriter& w) { log.save_state(w); },
      [&log](util::BinReader& r) { log.load_state(r); });
}

/// Run the reference to completion with a snapshot every \p period_s,
/// keeping a numbered copy of every snapshot along the way.
DailyResult run_daily_reference(const scenario::DailyConfig& config,
                                sim::SimTime period_s, const std::string& path,
                                std::vector<std::string>& copies) {
  scenario::DailyScenario daily(config);
  metrics::EventLog log;
  log.attach(*daily.ecocloud());
  ckpt::CheckpointManager manager(daily.simulator());
  daily.register_checkpoint(manager);
  register_event_log(manager, log);
  keep_copies(manager, path, copies);
  daily.start();
  run_sliced(daily, period_s, [&](sim::SimTime) { manager.save(path); });
  return daily_result(daily, log);
}

/// Resume from one snapshot into a freshly built scenario and finish.
DailyResult resume_daily(const scenario::DailyConfig& config,
                         const std::string& snapshot) {
  scenario::DailyScenario daily(config);
  metrics::EventLog log;
  log.attach(*daily.ecocloud());
  ckpt::CheckpointManager manager(daily.simulator());
  daily.register_checkpoint(manager);
  register_event_log(manager, log);
  manager.restore(snapshot);
  daily.run_slice(config.horizon_s);
  daily.finish();
  return daily_result(daily, log);
}

void remove_all(const std::vector<std::string>& paths) {
  for (const std::string& path : paths) std::remove(path.c_str());
}

}  // namespace

// The tentpole guarantee: resuming from any snapshot of an interrupted run
// reproduces the uninterrupted run bit for bit — event log CSV bytes, every
// 30-minute sample, and every accumulated double compare with ==. The
// snapshot cadence (1800 s) straddles the 1 h warmup, so the first resume
// point exercises the "snapshot before the accounting reset" path and the
// second the "taken right after it" one.
TEST(CheckpointResume, DailyRunIsBitIdenticalFromEverySnapshot) {
  const scenario::DailyConfig config = resume_daily_config();
  const std::string path = temp_path("daily.ckpt");
  std::vector<std::string> copies;
  const DailyResult reference =
      run_daily_reference(config, 1800.0, path, copies);
  // 6 h / 1800 s = 12 snapshots (the last lands exactly on the horizon).
  ASSERT_GE(copies.size(), 10u);

  // Resume from before the warmup reset, right at it, mid-run, and from
  // the final snapshot.
  for (const std::size_t index :
       {std::size_t{0}, std::size_t{1}, copies.size() / 2, copies.size() - 1}) {
    SCOPED_TRACE("snapshot #" + std::to_string(index));
    const DailyResult resumed = resume_daily(config, copies[index]);
    expect_same(resumed, reference);
  }
  remove_all(copies);
  std::remove(path.c_str());
}

// The fast sampler adds deterministic state of its own — the dense
// membership order inside DataCenter and the controller's open-boot
// registry, both drawn from by index — so resume must reproduce that
// order exactly, not just the aggregate placement state.
TEST(CheckpointResume, FastSamplerRunIsBitIdenticalFromEverySnapshot) {
  scenario::DailyConfig config = resume_daily_config();
  config.params.fast_sampler = true;
  config.params.invite_group_size = 8;  // exercise Floyd's subset sampling
  const std::string path = temp_path("daily_fast.ckpt");
  std::vector<std::string> copies;
  const DailyResult reference =
      run_daily_reference(config, 1800.0, path, copies);
  ASSERT_GE(copies.size(), 10u);
  for (const std::size_t index :
       {std::size_t{0}, copies.size() / 2, copies.size() - 1}) {
    SCOPED_TRACE("snapshot #" + std::to_string(index));
    const DailyResult resumed = resume_daily(config, copies[index]);
    expect_same(resumed, reference);
  }
  remove_all(copies);
  std::remove(path.c_str());
}

// Snapshots are portable across trace-memory modes: a checkpoint taken by
// a materialized-TraceSet run restores into a streaming-cursor run (and
// vice versa) and finishes bit-identically. The streaming bank carries no
// snapshot state — it regenerates at step 0 and fast-forwards on first
// use — and config.streaming_traces is deliberately not in the digest.
TEST(CheckpointResume, SnapshotsArePortableAcrossTraceMemoryModes) {
  scenario::DailyConfig config = resume_daily_config();
  const std::string path = temp_path("daily_xmode.ckpt");
  std::vector<std::string> copies;
  const DailyResult reference =
      run_daily_reference(config, 1800.0, path, copies);
  ASSERT_GE(copies.size(), 3u);

  scenario::DailyConfig streaming_config = config;
  streaming_config.streaming_traces = true;
  for (const std::size_t index : {std::size_t{0}, copies.size() - 1}) {
    SCOPED_TRACE("snapshot #" + std::to_string(index));
    const DailyResult resumed = resume_daily(streaming_config, copies[index]);
    expect_same(resumed, reference);
  }
  remove_all(copies);
  std::remove(path.c_str());
}

// Chained resume: interrupt the *resumed* run again and resume from its
// own snapshot. Crash-safety must compose across generations of resumes.
TEST(CheckpointResume, DailyResumeOfAResumeStaysBitIdentical) {
  const scenario::DailyConfig config = resume_daily_config();
  const std::string path = temp_path("daily_chain.ckpt");
  std::vector<std::string> copies;
  const DailyResult reference =
      run_daily_reference(config, 2700.0, path, copies);
  ASSERT_GE(copies.size(), 3u);

  // First resume: restore snapshot #0 and let the run write its own
  // snapshots to a second path.
  std::vector<std::string> second_copies;
  const std::string second_path = temp_path("daily_chain2.ckpt");
  {
    scenario::DailyScenario daily(config);
    metrics::EventLog log;
    log.attach(*daily.ecocloud());
    ckpt::CheckpointManager manager(daily.simulator());
    daily.register_checkpoint(manager);
    register_event_log(manager, log);
    manager.restore(copies[0]);
    keep_copies(manager, second_path, second_copies);
    run_sliced(daily, 2700.0,
               [&](sim::SimTime) { manager.save(second_path); });
    expect_same(daily_result(daily, log), reference);
  }
  ASSERT_GE(second_copies.size(), 2u);

  // Second generation: resume from a snapshot the resumed run wrote.
  const DailyResult resumed =
      resume_daily(config, second_copies[second_copies.size() - 2]);
  expect_same(resumed, reference);

  remove_all(copies);
  remove_all(second_copies);
  std::remove(path.c_str());
  std::remove(second_path.c_str());
}

// Satellite: property test — random checkpoint cadences (hence random
// interruption points measured in executed events) never perturb the
// final event log or aggregates.
TEST(CheckpointResume, PropertyRandomCadencesAndResumePoints) {
  scenario::DailyConfig config = resume_daily_config();
  // Smaller run: the property loop runs several full simulations.
  config.fleet.num_servers = 24;
  config.num_vms = 300;
  config.horizon_s = 3.0 * sim::kHour;
  config.warmup_s = 0.5 * sim::kHour;

  util::Rng rng(424242);
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    config.seed = 100 + static_cast<std::uint64_t>(trial);
    const double period_s = 300.0 + rng.uniform(0.0, 3000.0);
    const std::string path =
        temp_path("property_" + std::to_string(trial) + ".ckpt");
    std::vector<std::string> copies;
    const DailyResult reference =
        run_daily_reference(config, period_s, path, copies);
    ASSERT_FALSE(copies.empty());

    const std::size_t index = rng.index(copies.size());
    SCOPED_TRACE("period " + std::to_string(period_s) + " s, snapshot #" +
                 std::to_string(index));
    const DailyResult resumed = resume_daily(config, copies[index]);
    expect_same(resumed, reference);
    remove_all(copies);
    std::remove(path.c_str());
  }
}

// A run that never checkpoints must not even notice the subsystem exists:
// registering the manager without saving changes nothing.
TEST(CheckpointResume, RegisteredButIdleManagerIsInvisible) {
  scenario::DailyConfig config = resume_daily_config();
  config.fleet.num_servers = 24;
  config.num_vms = 300;
  config.horizon_s = 2.0 * sim::kHour;
  config.warmup_s = 0.0;

  DailyResult bare;
  {
    scenario::DailyScenario daily(config);
    metrics::EventLog log;
    log.attach(*daily.ecocloud());
    daily.run();
    bare = daily_result(daily, log);
  }
  DailyResult registered;
  {
    scenario::DailyScenario daily(config);
    metrics::EventLog log;
    log.attach(*daily.ecocloud());
    ckpt::CheckpointManager manager(daily.simulator());
    daily.register_checkpoint(manager);
    register_event_log(manager, log);
    daily.run();
    registered = daily_result(daily, log);
  }
  expect_same(registered, bare);
}

// --- Bit-identical resume: consolidation scenario ----------------------------

namespace {

struct ConsResult {
  double energy_joules = 0.0;
  double vm_seconds = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t rejections = 0;
  std::uint64_t messages = 0;
  std::uint64_t executed_events = 0;
  std::vector<metrics::Sample> samples;
};

ConsResult cons_result(scenario::ConsolidationScenario& cons) {
  ConsResult result;
  result.energy_joules = cons.datacenter().energy_joules();
  result.vm_seconds = cons.datacenter().vm_seconds();
  result.arrivals = cons.open_system().total_arrivals();
  result.departures = cons.open_system().total_departures();
  result.rejections = cons.open_system().total_rejections();
  result.messages = cons.controller().messages().total();
  result.executed_events = cons.simulator().executed_events();
  result.samples = cons.collector().samples();
  return result;
}

}  // namespace

TEST(CheckpointResume, ConsolidationRunIsBitIdentical) {
  scenario::ConsolidationConfig config;
  config.num_servers = 30;
  config.initial_vms = 300;
  config.horizon_s = 4.0 * sim::kHour;
  config.mean_lifetime_s = 1.0 * sim::kHour;
  config.seed = 11;

  const std::string path = temp_path("cons.ckpt");
  std::vector<std::string> copies;
  ConsResult reference;
  {
    scenario::ConsolidationScenario cons(config);
    ckpt::CheckpointManager manager(cons.simulator());
    cons.register_checkpoint(manager);
    keep_copies(manager, path, copies);
    cons.start();
    run_sliced(cons, 1800.0, [&](sim::SimTime) { manager.save(path); });
    reference = cons_result(cons);
  }
  ASSERT_GE(copies.size(), 4u);

  for (const std::size_t index : {std::size_t{0}, copies.size() / 2,
                                  copies.size() - 1}) {
    SCOPED_TRACE("snapshot #" + std::to_string(index));
    scenario::ConsolidationScenario cons(config);
    ckpt::CheckpointManager manager(cons.simulator());
    cons.register_checkpoint(manager);
    manager.restore(copies[index]);
    cons.run_slice(config.horizon_s);
    cons.finish();
    const ConsResult resumed = cons_result(cons);
    EXPECT_EQ(resumed.energy_joules, reference.energy_joules);
    EXPECT_EQ(resumed.vm_seconds, reference.vm_seconds);
    EXPECT_EQ(resumed.arrivals, reference.arrivals);
    EXPECT_EQ(resumed.departures, reference.departures);
    EXPECT_EQ(resumed.rejections, reference.rejections);
    EXPECT_EQ(resumed.messages, reference.messages);
    EXPECT_EQ(resumed.executed_events, reference.executed_events);
    ASSERT_EQ(resumed.samples.size(), reference.samples.size());
    for (std::size_t i = 0; i < reference.samples.size(); ++i) {
      EXPECT_EQ(resumed.samples[i].power_w, reference.samples[i].power_w);
      EXPECT_EQ(resumed.samples[i].overall_load, reference.samples[i].overall_load);
      EXPECT_EQ(resumed.samples[i].active_servers,
                reference.samples[i].active_servers);
    }
  }
  remove_all(copies);
  std::remove(path.c_str());
}

// --- Consistency enforcement at restore --------------------------------------

namespace {

/// One early snapshot of a short daily run, for the rejection tests.
std::string make_daily_snapshot(const scenario::DailyConfig& config,
                                const std::string& path, bool with_event_log) {
  scenario::DailyScenario daily(config);
  metrics::EventLog log;
  log.attach(*daily.ecocloud());
  ckpt::CheckpointManager manager(daily.simulator());
  daily.register_checkpoint(manager);
  if (with_event_log) register_event_log(manager, log);
  daily.start();
  run_sliced(daily, 1800.0, [&](sim::SimTime) { manager.save(path); });
  return path;
}

scenario::DailyConfig tiny_daily() {
  scenario::DailyConfig config;
  config.fleet.num_servers = 12;
  config.num_vms = 150;
  config.horizon_s = 1.0 * sim::kHour;
  config.seed = 5;
  return config;
}

}  // namespace

TEST(CheckpointConsistency, DifferentConfigDigestRejected) {
  const std::string path = temp_path("digest.ckpt");
  scenario::DailyConfig config = tiny_daily();
  make_daily_snapshot(config, path, /*with_event_log=*/false);

  config.seed = 6;  // different experiment
  scenario::DailyScenario daily(config);
  ckpt::CheckpointManager manager(daily.simulator());
  daily.register_checkpoint(manager);
  try {
    manager.restore(path);
    FAIL() << "digest mismatch accepted";
  } catch (const ckpt::SnapshotError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("different configuration"), std::string::npos) << what;
    EXPECT_NE(what.find("stored:"), std::string::npos) << what;
    EXPECT_NE(what.find("current:"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(CheckpointConsistency, SnapshotWithEventLogNeedsEventLogRegistered) {
  const std::string path = temp_path("needs_log.ckpt");
  const scenario::DailyConfig config = tiny_daily();
  make_daily_snapshot(config, path, /*with_event_log=*/true);

  scenario::DailyScenario daily(config);
  ckpt::CheckpointManager manager(daily.simulator());
  daily.register_checkpoint(manager);  // no event log this time
  try {
    manager.restore(path);
    FAIL() << "dropped the stored event_log section silently";
  } catch (const ckpt::SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("carries section 'event_log'"),
              std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(CheckpointConsistency, SnapshotWithoutEventLogRejectsEventLogRegistration) {
  const std::string path = temp_path("no_log.ckpt");
  const scenario::DailyConfig config = tiny_daily();
  make_daily_snapshot(config, path, /*with_event_log=*/false);

  scenario::DailyScenario daily(config);
  metrics::EventLog log;
  log.attach(*daily.ecocloud());
  ckpt::CheckpointManager manager(daily.simulator());
  daily.register_checkpoint(manager);
  register_event_log(manager, log);
  try {
    manager.restore(path);
    FAIL() << "resumed with an event log the original run did not have";
  } catch (const ckpt::SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("missing section 'event_log'"),
              std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(CheckpointConsistency, RestoreTwiceRejected) {
  const std::string path = temp_path("twice.ckpt");
  const scenario::DailyConfig config = tiny_daily();
  make_daily_snapshot(config, path, /*with_event_log=*/false);

  scenario::DailyScenario daily(config);
  ckpt::CheckpointManager manager(daily.simulator());
  daily.register_checkpoint(manager);
  manager.restore(path);
  EXPECT_THROW(manager.restore(path), std::exception);
  std::remove(path.c_str());
}

TEST(CheckpointConsistency, CorruptedSnapshotNamesTheSection) {
  const std::string path = temp_path("named.ckpt");
  const scenario::DailyConfig config = tiny_daily();
  make_daily_snapshot(config, path, /*with_event_log=*/false);

  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x01;
  write_file(path, bytes);
  scenario::DailyScenario daily(config);
  ckpt::CheckpointManager manager(daily.simulator());
  daily.register_checkpoint(manager);
  try {
    manager.restore(path);
    FAIL() << "corrupted snapshot accepted";
  } catch (const ckpt::SnapshotError& error) {
    // Either a CRC failure naming a section or a structural error — both
    // carry the path for actionable diagnostics.
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

// Older builds ran the periodic checkpoint, the auditor and the telemetry
// flush as calendar events, owned by the now retired owners 7, 8 and 9.
// Their snapshots are refused, naming the owner, before any state loads.
TEST(CheckpointConsistency, RetiredCalendarOwnersRejectedBeforeAnyStateLoads) {
  scenario::ConsolidationConfig config;
  config.num_servers = 10;
  config.initial_vms = 60;
  config.horizon_s = 1.0 * sim::kHour;
  config.seed = 3;
  for (const std::uint16_t owner : {7, 8, 9}) {
    SCOPED_TRACE("owner " + std::to_string(owner));
    const std::string path =
        temp_path("retired_" + std::to_string(owner) + ".ckpt");
    bool loaded = false;
    const auto register_all = [&loaded](scenario::ConsolidationScenario& cons,
                                        ckpt::CheckpointManager& manager) {
      // Registered first, so it would be the first section to load.
      manager.add_section(
          "probe", [](util::BinWriter&) {},
          [&loaded](util::BinReader&) { loaded = true; });
      cons.register_checkpoint(manager);
    };
    {
      scenario::ConsolidationScenario cons(config);
      ckpt::CheckpointManager manager(cons.simulator());
      register_all(cons, manager);
      cons.start();
      // The calendar entry an older build's periodic service left behind.
      cons.simulator().schedule_periodic(
          600.0, sim::EventTag{owner, 1, 0, 0}, [] {}, 600.0);
      cons.run_slice(900.0);
      manager.save(path);
    }

    scenario::ConsolidationScenario cons(config);
    ckpt::CheckpointManager manager(cons.simulator());
    register_all(cons, manager);
    try {
      manager.restore(path);
      FAIL() << "snapshot with a retired calendar owner accepted";
    } catch (const ckpt::SnapshotError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("retired owner " + std::to_string(owner)),
                std::string::npos)
          << what;
    }
    EXPECT_FALSE(loaded);
    EXPECT_FALSE(manager.restored());
    EXPECT_EQ(cons.datacenter().num_vms(), 0u);
    EXPECT_EQ(cons.simulator().pending_events(), 0u);
    EXPECT_EQ(cons.simulator().executed_events(), 0u);
    std::remove(path.c_str());
  }
}

// --- Runtime auditor ---------------------------------------------------------

TEST(Auditor, ParseAction) {
  EXPECT_EQ(ckpt::parse_audit_action("log"), ckpt::AuditAction::kLog);
  EXPECT_EQ(ckpt::parse_audit_action("abort"), ckpt::AuditAction::kAbort);
  EXPECT_EQ(ckpt::parse_audit_action("heal"), ckpt::AuditAction::kHeal);
  EXPECT_THROW((void)ckpt::parse_audit_action("explode"), std::invalid_argument);
  EXPECT_STREQ(ckpt::to_string(ckpt::AuditAction::kAbort), "abort");
}

TEST(Auditor, CleanDailyRunPassesEveryAudit) {
  scenario::DailyConfig config = resume_daily_config();
  config.fleet.num_servers = 24;
  config.num_vms = 300;
  config.horizon_s = 3.0 * sim::kHour;

  scenario::DailyScenario daily(config);
  ckpt::AuditorConfig audit;
  audit.action = ckpt::AuditAction::kAbort;  // corruption would kill the test
  ckpt::RuntimeAuditor auditor(daily.simulator(), daily.datacenter(), audit);
  auditor.attach_controller(daily.ecocloud());
  if (daily.fault_injector() != nullptr) {
    auditor.attach_redeploy(&daily.fault_injector()->redeploy());
  }
  daily.start();
  run_sliced(daily, 600.0, [&](sim::SimTime) { auditor.run_audit(); });

  EXPECT_EQ(auditor.stats().audits_run, 18u);  // 3 h / 600 s
  EXPECT_EQ(auditor.stats().audits_failed, 0u);
  EXPECT_EQ(auditor.stats().heals_applied, 0u);
}

// Acceptance gate: the auditor stays green on the paper-scale experiment
// (same fleet/VM shape as the Sec. III regression run).
TEST(Auditor, PassesOnPaperScaleDaily) {
  scenario::DailyConfig config;
  config.fleet.num_servers = 60;
  config.num_vms = 900;
  config.horizon_s = 48.0 * sim::kHour;
  config.seed = 20130520;

  scenario::DailyScenario daily(config);
  ckpt::AuditorConfig audit;
  audit.action = ckpt::AuditAction::kAbort;
  ckpt::RuntimeAuditor auditor(daily.simulator(), daily.datacenter(), audit);
  auditor.attach_controller(daily.ecocloud());
  daily.start();
  run_sliced(daily, 2.0 * sim::kHour,
             [&](sim::SimTime) { auditor.run_audit(); });

  EXPECT_EQ(auditor.stats().audits_run, 24u);  // 48 h / 2 h
  EXPECT_EQ(auditor.stats().audits_failed, 0u);
}

TEST(Auditor, StrictModeDetectsUnownedVm) {
  scenario::DailyConfig config = tiny_daily();
  scenario::DailyScenario daily(config);
  daily.run();

  ckpt::AuditorConfig audit;
  audit.strict_vm_accounting = true;
  ckpt::RuntimeAuditor auditor(daily.simulator(), daily.datacenter(), audit);
  auditor.attach_controller(daily.ecocloud());
  EXPECT_TRUE(auditor.run_audit().empty());

  // A VM that exists but is neither placed, boot-queued, nor pending
  // redeploy is a leak; strict accounting must flag it.
  (void)daily.datacenter().create_vm(500.0, 512.0);
  const std::vector<std::string> failures = auditor.run_audit();
  ASSERT_FALSE(failures.empty());
  bool mentions_ownership = false;
  for (const std::string& failure : failures) {
    if (failure.find("neither placed") != std::string::npos) {
      mentions_ownership = true;
    }
  }
  EXPECT_TRUE(mentions_ownership) << failures.front();
  EXPECT_EQ(auditor.stats().audits_run, 2u);
  EXPECT_EQ(auditor.stats().audits_failed, 1u);

  // Relaxed accounting (the consolidation default) accepts unowned VMs.
  ckpt::AuditorConfig relaxed;
  relaxed.strict_vm_accounting = false;
  ckpt::RuntimeAuditor lenient(daily.simulator(), daily.datacenter(), relaxed);
  lenient.attach_controller(daily.ecocloud());
  EXPECT_TRUE(lenient.run_audit().empty());
}

TEST(Auditor, HealRepairsOnlyDerivableState) {
  scenario::DailyConfig config = tiny_daily();
  scenario::DailyScenario daily(config);
  daily.run();

  // True state corruption (an unowned VM) is not cache drift: heal runs,
  // repairs nothing, and the failure is still reported.
  (void)daily.datacenter().create_vm(500.0, 512.0);
  ckpt::AuditorConfig audit;
  audit.action = ckpt::AuditAction::kHeal;
  ckpt::RuntimeAuditor auditor(daily.simulator(), daily.datacenter(), audit);
  auditor.attach_controller(daily.ecocloud());
  const std::vector<std::string> failures = auditor.run_audit();
  EXPECT_FALSE(failures.empty());
  EXPECT_EQ(auditor.stats().heals_applied, 1u);
  EXPECT_EQ(daily.datacenter().heal_caches(), 0u);  // caches were never wrong
}

// --- Safe-point schedule -----------------------------------------------------

TEST(SafePoints, DueTimesFollowTheCadenceFromStartAndFromARestoredClock) {
  ckpt::RunControl control;
  control.checkpoint_out = "run.ckpt";
  control.checkpoint_every_s = 900.0;
  control.audit_every_s = 900.0;

  ckpt::SafePoints fresh(control);
  fresh.start(0.0);
  EXPECT_EQ(fresh.next_audit_due(), 900.0);
  EXPECT_EQ(fresh.next_checkpoint_due(), 900.0);

  // A restored clock re-arms at the first multiple strictly after it.
  ckpt::SafePoints restored(control);
  restored.start(1234.0);
  EXPECT_EQ(restored.next_audit_due(), 1800.0);
  EXPECT_EQ(restored.next_checkpoint_due(), 1800.0);

  // Nothing is due before 1800 s; at 1800 s both run once and move on.
  int audits = 0;
  std::vector<std::string> saved;
  const ckpt::SafePoints::AuditFn audit = [&audits](ckpt::AuditRound&) { ++audits; };
  const ckpt::SafePoints::SaveFn save = [&saved](const std::string& path) {
    saved.push_back(path);
  };
  restored.at(1500.0, 0, audit, save);
  EXPECT_EQ(audits, 0);
  EXPECT_TRUE(saved.empty());
  restored.at(1800.0, 0, audit, save);
  EXPECT_EQ(audits, 1);
  EXPECT_EQ(saved, std::vector<std::string>{"run.ckpt"});
  EXPECT_EQ(restored.next_audit_due(), 2700.0);
  EXPECT_EQ(restored.next_checkpoint_due(), 2700.0);

  // Disabled features are never due.
  ckpt::SafePoints bare(ckpt::RunControl{});
  bare.start(0.0);
  EXPECT_TRUE(std::isinf(bare.next_audit_due()));
  EXPECT_TRUE(std::isinf(bare.next_checkpoint_due()));
  EXPECT_FALSE(bare.active());
}

TEST(SafePoints, StoredCadenceIsTakenOnlyWhenNoneIsGiven) {
  ckpt::RunControl writer_control;
  writer_control.checkpoint_out = "run.ckpt";
  writer_control.checkpoint_every_s = 900.0;
  util::BinWriter w;
  ckpt::SafePoints(writer_control).save_state(w);

  ckpt::SafePoints keeps(ckpt::RunControl{});
  util::BinReader r1(w.buffer());
  keeps.load_state(r1);
  EXPECT_EQ(keeps.control().checkpoint_every_s, 900.0);

  ckpt::RunControl given;
  given.checkpoint_every_s = 600.0;
  ckpt::SafePoints overrides(given);
  util::BinReader r2(w.buffer());
  overrides.load_state(r2);
  EXPECT_EQ(overrides.control().checkpoint_every_s, 600.0);
}

TEST(SafePoints, CheckpointPathFallsBackToTheResumedFile) {
  ckpt::SafePoints fallback(ckpt::RunControl{});
  EXPECT_TRUE(fallback.checkpoint_path().empty());
  fallback.resume_from("resumed.ckpt");
  EXPECT_EQ(fallback.checkpoint_path(), "resumed.ckpt");
  EXPECT_TRUE(fallback.active());

  ckpt::RunControl control;
  control.checkpoint_out = "out.ckpt";
  ckpt::SafePoints named(control);
  named.resume_from("resumed.ckpt");
  EXPECT_EQ(named.checkpoint_path(), "out.ckpt");
}

TEST(SafePoints, AuditCountersSurviveASaveLoadRoundTrip) {
  ckpt::RunControl control;
  control.audit_every_s = 900.0;
  ckpt::SafePoints points(control);
  points.start(0.0);
  const ckpt::SafePoints::SaveFn no_save = [](const std::string&) {
    FAIL() << "no checkpoint is configured";
  };
  // A failed round with two failed checks and a heal, then a clean one.
  points.at(900.0, 0, [](ckpt::AuditRound& round) { round = {2, 1}; }, no_save);
  points.at(1800.0, 0, [](ckpt::AuditRound&) {}, no_save);
  const ckpt::AuditCounters& want = points.audits();
  EXPECT_EQ(want.audits_run, 2u);
  EXPECT_EQ(want.audit_failures, 2u);
  EXPECT_EQ(want.audit_rounds_failed, 1u);
  EXPECT_EQ(want.audit_heals, 1u);

  util::BinWriter w;
  points.save_state(w);
  ckpt::SafePoints restored(ckpt::RunControl{});
  util::BinReader r(w.buffer());
  restored.load_state(r);
  r.expect_exhausted("safe_points");
  EXPECT_EQ(restored.audits().audits_run, want.audits_run);
  EXPECT_EQ(restored.audits().audit_failures, want.audit_failures);
  EXPECT_EQ(restored.audits().audit_rounds_failed, want.audit_rounds_failed);
  EXPECT_EQ(restored.audits().audit_heals, want.audit_heals);
}

TEST(SafePoints, RefusesANanOrNegativeStoredCadence) {
  for (const double cadence : {std::nan(""), -900.0}) {
    util::BinWriter w;
    w.f64(cadence);
    for (int i = 0; i < 4; ++i) w.u64(0);
    ckpt::SafePoints points(ckpt::RunControl{});
    util::BinReader r(w.buffer());
    EXPECT_THROW(points.load_state(r), std::runtime_error) << cadence;
  }
}

// --- Watchdog ----------------------------------------------------------------

TEST(Watchdog, BeatsKeepItQuiet) {
  ckpt::Watchdog::Config config;
  config.stall_seconds = 0.3;
  ckpt::Watchdog watchdog(config);
  watchdog.arm();
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    watchdog.beat(static_cast<std::uint64_t>(i), static_cast<double>(i));
  }
  watchdog.disarm();
  EXPECT_FALSE(watchdog.armed());
  // Destructor joins the monitor thread; reaching here without an abort
  // is the assertion.
}

TEST(Watchdog, DisarmedWatchdogIgnoresSilence) {
  ckpt::Watchdog::Config config;
  config.stall_seconds = 0.1;
  ckpt::Watchdog watchdog(config);  // never armed
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
}

TEST(WatchdogDeathTest, AbortsOnStallWithDiagnostic) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ckpt::Watchdog::Config config;
        config.stall_seconds = 0.2;
        ckpt::Watchdog watchdog(config);
        watchdog.beat(42, 1234.0);
        watchdog.arm();
        std::this_thread::sleep_for(std::chrono::seconds(5));
      },
      "stalled");
}

}  // namespace
