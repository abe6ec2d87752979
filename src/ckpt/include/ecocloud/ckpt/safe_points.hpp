#pragma once

/// \file safe_points.hpp
/// \brief The one safe-point schedule of a run (DESIGN.md Sec. 11).
///
/// A safe point is a slice boundary with no event in flight:
/// ShardedDailyRun's epoch barriers, run-consolidation's slice boundaries.
/// Both call SafePoints::at there, which runs the audit and the checkpoint
/// that are due and beats the watchdog. The run builds its own auditors and
/// writes its own snapshots; SafePoints decides when, counts the audit
/// rounds, and keeps the cadence and the counters in one snapshot section.
/// Nothing here schedules a calendar event.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "ecocloud/sim/time.hpp"
#include "ecocloud/util/binio.hpp"

namespace ecocloud::obs {
class MetricRegistry;
}

namespace ecocloud::ckpt {

class RuntimeAuditor;
class Watchdog;
struct SaveStats;

/// Robustness knobs shared by both experiments: periodic crash-safe
/// checkpoints, the runtime invariant auditor, and the wall-clock
/// watchdog, all run at safe points between run slices. Parsed from
/// `[checkpoint]` / `[audit]` / `[watchdog]` config sections (config_io)
/// and overridable from the CLI. Not part of the config digest: none of
/// them changes the executed events, so resuming with different cadences
/// or output paths is safe.
struct RunControl {
  /// Snapshot file written every checkpoint_every_s of sim time. Empty
  /// disables periodic checkpointing.
  std::string checkpoint_out;
  sim::SimTime checkpoint_every_s = 0.0;

  /// Invariant-audit cadence; 0 disables the auditor.
  sim::SimTime audit_every_s = 0.0;
  /// "log" | "abort" | "heal" (ckpt::parse_audit_action).
  std::string audit_action = "log";
  /// Relative tolerance of the floating-point conservation checks.
  double audit_tolerance = 1e-6;
  /// Require every live VM to be owned exactly once. On by default for
  /// the daily scenario; the consolidation scenario's departed VMs are
  /// legitimately unowned, so its loader defaults this to false.
  bool audit_strict = true;

  /// Wall-clock seconds of event-loop silence before the watchdog aborts
  /// with a diagnostic; 0 disables the watchdog.
  double watchdog_stall_s = 0.0;
};

/// Audit counters of a whole run, summed over all of its auditors.
struct AuditCounters {
  std::uint64_t audits_run = 0;           ///< audit rounds
  std::uint64_t audit_failures = 0;       ///< failed checks across all rounds
  std::uint64_t audit_rounds_failed = 0;  ///< rounds with any failed check
  std::uint64_t audit_heals = 0;          ///< heal actions
};

/// What one audit round found.
struct AuditRound {
  std::uint64_t failed_checks = 0;
  std::uint64_t heals = 0;
};

/// Run \p auditor once and add to \p round: one failed check when it found
/// anything, and the heals it applied.
void audit_into(RuntimeAuditor& auditor, AuditRound& round);

class SafePoints {
 public:
  /// Runs the owner's auditors, adding what they find to the round.
  using AuditFn = std::function<void(AuditRound& round)>;
  using SaveFn = std::function<void(const std::string& path)>;

  explicit SafePoints(RunControl control);
  ~SafePoints();
  SafePoints(const SafePoints&) = delete;
  SafePoints& operator=(const SafePoints&) = delete;

  /// Without a checkpoint_out, snapshots go back over the resumed \p path.
  void resume_from(const std::string& path);
  /// Arm at the run's clock \p t (0 or the restored one): each cadence is
  /// first due at its next multiple strictly after \p t. Starts the watchdog.
  void start(sim::SimTime t);
  /// The safe point at \p t: \p audit and \p save (given checkpoint_path())
  /// run when due, then the watchdog beats.
  void at(sim::SimTime t, std::uint64_t executed_events, const AuditFn& audit,
          const SaveFn& save);
  /// Disarm the watchdog before the run's final settle and I/O.
  void finish();

  /// The cadence and the audit counters. load_state refuses a NaN or
  /// negative cadence and takes it only when the run names none.
  void save_state(util::BinWriter& w) const;
  void load_state(util::BinReader& r);

  /// The knobs in effect: the checkpoint path and cadence after any resume.
  [[nodiscard]] const RunControl& control() const { return control_; }
  [[nodiscard]] const std::string& checkpoint_path() const {
    return control_.checkpoint_out;
  }
  [[nodiscard]] bool auditing() const { return control_.audit_every_s > 0.0; }
  /// Checkpoints or audits at all: the run then exports the robustness family.
  [[nodiscard]] bool active() const { return !checkpoint_path().empty() || auditing(); }
  [[nodiscard]] sim::SimTime next_audit_due() const { return next_audit_; }
  [[nodiscard]] sim::SimTime next_checkpoint_due() const { return next_ckpt_; }
  [[nodiscard]] const AuditCounters& audits() const { return audits_; }

 private:
  static constexpr sim::SimTime kNever = std::numeric_limits<sim::SimTime>::infinity();
  /// The one due-time rule (sim::next_due); never when \p every <= 0.
  [[nodiscard]] static sim::SimTime due_after(sim::SimTime t, sim::SimTime every);

  RunControl control_;
  sim::SimTime next_audit_ = kNever;
  sim::SimTime next_ckpt_ = kNever;
  AuditCounters audits_;
  std::unique_ptr<Watchdog> watchdog_;
};

/// Register the robustness metric family (ecocloud_checkpoint*_,
/// ecocloud_audit*_), unlabeled, over a run's snapshot writes (\p saves,
/// polled at export) and \p points' audit counters. Both run commands
/// register it, so both export the same series names.
void register_robustness(obs::MetricRegistry& registry,
                         std::function<SaveStats()> saves, const SafePoints& points);

}  // namespace ecocloud::ckpt
