#pragma once

/// \file sharded_runner.hpp
/// \brief Coordinator of a sharded daily run: conservative epoch
/// synchronization over K independent shards.
///
/// Execution model (DESIGN.md Sec. 12):
///  * the horizon is cut into epochs of sync_interval_s (aligned so the
///    warmup boundary and the horizon are barrier times);
///  * within an epoch every shard advances its own calendar independently
///    — a ThreadPool runs them concurrently, but nothing they touch is
///    shared, so any interleaving computes the same states;
///  * at the barrier the coordinator runs SERIALLY, in shard order: it
///    drains each shard's migration wishes (trials that fired with no
///    local destination) and re-runs the destination search over the
///    other shards' fleets, transferring the VM when someone volunteers.
///
/// Determinism for a fixed K: shard streams never interleave (each shard
/// owns its RNG, calendar, and fleet slice), barrier decisions are made in
/// shard order by serial code, and output merging orders rows by
/// (time, shard). None of that depends on how many worker threads execute
/// the epochs, so 1, 2, or 16 threads produce identical bytes.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "ecocloud/ckpt/auditor.hpp"
#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/ckpt/safe_points.hpp"
#include "ecocloud/metrics/collector.hpp"
#include "ecocloud/metrics/event_log.hpp"
#include "ecocloud/par/event_merge.hpp"
#include "ecocloud/par/partition.hpp"
#include "ecocloud/par/shard.hpp"
#include "ecocloud/scenario/scenario.hpp"
#include "ecocloud/util/phase_profiler.hpp"
#include "ecocloud/util/thread_pool.hpp"

namespace ecocloud::par {

struct ParConfig {
  /// Number of shards K. Fixed K fixes the trajectory; the thread count
  /// only changes wall-clock time.
  std::size_t shards = 1;
  /// Worker threads (0 -> hardware concurrency), capped at the shard
  /// count.
  std::size_t threads = 0;
  /// Epoch length between barriers. The default matches the 5-minute
  /// trace tick: cross-shard relief then reacts on the same timescale as
  /// the demand changes that cause it.
  sim::SimTime sync_interval_s = 300.0;
  /// Interleaving-explorer hook: when set, each epoch runs its shards
  /// SERIALLY in the permutation this returns for (epoch, K) instead of
  /// on the thread pool. The correctness harness sweeps permutations to
  /// prove the epoch execution order cannot influence the trajectory.
  std::function<std::vector<std::size_t>(std::uint64_t, std::size_t)>
      epoch_order = {};
};

/// Aggregate results of a sharded run (sums over shards + coordinator). Every
/// save_snapshot counts at once; the audit counters are folded in by finish().
struct ParStats : ckpt::SaveStats, ckpt::AuditCounters {
  std::uint64_t executed_events = 0;
  std::uint64_t migrations = 0;      ///< intra-shard + cross-shard
  std::uint64_t low_migrations = 0;  ///< ditto
  std::uint64_t high_migrations = 0;
  std::uint64_t cross_shard_migrations = 0;
  std::uint64_t activations = 0;
  std::uint64_t hibernations = 0;
  std::uint64_t wake_ups = 0;
  std::uint64_t assignment_failures = 0;
  std::uint64_t stranded_wishes = 0;   ///< wishes drained at barriers
  std::uint64_t handoff_attempts = 0;  ///< wishes still valid at the barrier
  std::uint64_t barriers = 0;
  double energy_joules = 0.0;
};

class ShardedDailyRun {
 public:
  /// Builds the K shards. Rejects the one config the sharded engine does
  /// not support: rack topology with K > 1 (invitations would need
  /// cross-shard rack scoping). Faults, checkpointing, auditing, the
  /// watchdog, and telemetry all compose with sharding.
  ShardedDailyRun(scenario::DailyConfig config, ParConfig par);
  ~ShardedDailyRun();

  ShardedDailyRun(const ShardedDailyRun&) = delete;
  ShardedDailyRun& operator=(const ShardedDailyRun&) = delete;

  /// Deploy all VMs at t=0 (skipped on a resumed run) and simulate to the
  /// horizon, honoring config.run: barrier-aligned checkpoints, audits,
  /// and watchdog beats: start() + run_slice(horizon) + finish().
  void run();

  /// Operability wiring from config.run, then the t=0 deploy wave unless the run was
  /// restored. Call once, after restore_snapshot if any.
  void start();

  /// Run whole epochs until the barrier clock reaches \p until or the horizon; true once
  /// the horizon is reached. Slicing never moves a barrier (an \p until between barriers
  /// runs on to the next one), so any slices produce the bytes of one run().
  bool run_slice(sim::SimTime until);

  /// Settle every shard at the horizon and fold the totals into stats().
  /// Call once, after run_slice returned true.
  void finish();

  /// Write one atomic snapshot of the whole sharded run (coordinator
  /// state plus every shard's sections) to \p path. Normally driven by
  /// config.run at barriers; public for tests and manual checkpoints.
  /// Snapshots are only taken at barriers, where the hand-off queue is
  /// empty and every shard sits at the same sim time.
  void save_snapshot(const std::string& path);

  /// Restore a snapshot written by save_snapshot into this freshly constructed run (same
  /// config, same K, same sync interval — enforced via the stored digest; the thread
  /// count is free). The run then continues from the snapshot's barrier with
  /// byte-identical output and counters. Without a cadence or a file of its own, it
  /// keeps the snapshot's cadence and writes back over \p path (ckpt::SafePoints).
  void restore_snapshot(const std::string& path);

  [[nodiscard]] bool resumed() const { return resumed_; }

  /// The barrier clock: the last completed barrier time.
  [[nodiscard]] sim::SimTime now() const { return t_; }
  /// Events executed so far over all shards (stats() has them at finish).
  [[nodiscard]] std::uint64_t executed_events() const;

  /// Whether the shards keep their decision event logs (default true):
  /// merged_events and write_events_* read them. A run that writes no
  /// event log turns them off and keeps no per-decision record in memory.
  /// A snapshot of a run without logs only resumes into another such run.
  /// Call before save_snapshot, restore_snapshot and start.
  void set_record_events(bool on);

  /// Called after each barrier's hand-off/audit/checkpoint work with the
  /// barrier time — the telemetry layer flushes its per-shard streams
  /// here instead of scheduling calendar events (which would perturb seq
  /// numbers and break the telemetry-off bit-identity).
  std::function<void(sim::SimTime)> on_barrier;

  /// Called after every successful snapshot write with the path.
  std::function<void(const std::string&)> on_checkpoint;

  /// Attach a phase profiler with K+1 domains: domain k receives shard
  /// k's samples (installed on whichever worker runs the shard's epoch),
  /// domain K the coordinator's (hand-off, checkpoint writes, and the
  /// per-shard barrier lag). Pure observer — attach/detach freely.
  void set_profiler(util::PhaseProfiler* profiler);

  /// Wall seconds each shard spent on the most recent epoch, and how far
  /// behind the slowest shard each one finished (max epoch wall minus
  /// own). Measured every epoch regardless of profiling; read them from
  /// the on_barrier hook.
  [[nodiscard]] const std::vector<double>& last_epoch_wall_s() const {
    return last_epoch_wall_s_;
  }
  [[nodiscard]] const std::vector<double>& last_barrier_lag_s() const {
    return last_barrier_lag_s_;
  }

  [[nodiscard]] const ParStats& stats() const { return stats_; }
  /// The barrier schedule of audits, checkpoints and watchdog beats.
  [[nodiscard]] const ckpt::SafePoints& safe_points() const { return safe_points_; }
  [[nodiscard]] double total_energy_kwh() const {
    return stats_.energy_joules / 3.6e6;
  }

  /// Per-window samples merged across shards: counts, power and energy
  /// add; overall load is the capacity-weighted mean; overload percent is
  /// recomputed from the summed VM-time integrals. For K=1 the samples are
  /// shard 0's verbatim (bit-identical to the single-threaded collector).
  [[nodiscard]] std::vector<metrics::Sample> merged_samples() const;

  /// Decision event log stitched across shards in (time, shard) order with
  /// ids translated to global: byte-identical to EventLog::write_csv
  /// format, and to the single-threaded log when K=1.
  void write_events_csv(std::ostream& out) const;

  /// The stitched global event rows behind write_events_csv.
  [[nodiscard]] std::vector<metrics::Event> merged_events() const;

  /// merged_events() in the compact binary format (event_log_binary.hpp);
  /// eventlog2csv converts it back to write_events_csv's exact bytes.
  void write_events_binary(std::ostream& out) const;

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  /// Worker threads running the epochs (ParConfig::threads resolved, and
  /// never more than the shard count).
  [[nodiscard]] std::size_t num_threads() const { return pool_ ? pool_->size() : 1; }
  [[nodiscard]] const Shard& shard(std::size_t k) const { return *shards_[k]; }
  [[nodiscard]] Shard& shard(std::size_t k) { return *shards_[k]; }
  [[nodiscard]] const ShardPlan& plan() const { return plan_; }
  [[nodiscard]] const scenario::DailyConfig& config() const { return config_; }

 private:
  void barrier_handoff(sim::SimTime now);
  void resolve_wish(std::size_t source_shard, const MigrationWish& wish,
                    sim::SimTime now);
  /// The merge inputs behind merged_events: every shard's event-log
  /// segment with its id translation, then the coordinator's rows.
  [[nodiscard]] std::vector<EventStream> event_streams() const;
  /// Once, before any event or snapshot: apply set_record_events to the
  /// shards and build one CheckpointManager per shard (sections + owners).
  void ensure_managers();
  /// Digest stored in snapshots: the daily digest plus shard count and
  /// sync interval, so snapshots only restore into the same trajectory.
  [[nodiscard]] std::string config_digest() const;
  /// The safe point, then the on_barrier hook — serially after the hand-off,
  /// with t_ already at the barrier time.
  void at_barrier();
  /// One audit round over every shard plus the cross-shard invariants.
  void run_audits(ckpt::AuditRound& round);
  /// Cross-shard invariants: unique trace-row ownership, fleet capacity
  /// conservation, per-shard energy monotonicity.
  [[nodiscard]] std::vector<std::string> cross_shard_failures();

  scenario::DailyConfig config_;
  ParConfig par_;
  ShardPlan plan_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Null at one worker: the epochs then run on the calling thread.
  std::unique_ptr<util::ThreadPool> pool_;

  /// Cross-shard migrations recorded by the coordinator with GLOBAL ids
  /// (the shard logs never see them; dc unplace/place is not a migration
  /// to either side's accounting).
  std::vector<metrics::Event> coordinator_events_;
  std::uint64_t cross_low_ = 0;
  std::uint64_t cross_high_ = 0;

  /// Operability wiring (built on demand from config_.run).
  std::vector<std::unique_ptr<ckpt::CheckpointManager>> managers_;
  std::vector<std::unique_ptr<ckpt::RuntimeAuditor>> auditors_;
  std::vector<double> last_energy_;  ///< per shard, for the monotonicity check
  ckpt::SafePoints safe_points_;

  /// Coordinator clock: the last completed barrier time. Persisted, so a
  /// resumed run continues the epoch loop exactly where the snapshot was
  /// taken.
  sim::SimTime t_ = 0.0;

  util::PhaseProfiler* profiler_ = nullptr;
  std::vector<double> last_epoch_wall_s_;
  std::vector<double> last_barrier_lag_s_;

  ParStats stats_;
  bool record_events_ = true;
  bool started_ = false;
  bool finished_ = false;
  bool resumed_ = false;
};

}  // namespace ecocloud::par
