#include "ecocloud/ckpt/safe_points.hpp"

#include <stdexcept>
#include <utility>

#include "ecocloud/ckpt/auditor.hpp"
#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/ckpt/watchdog.hpp"
#include "ecocloud/obs/metric_registry.hpp"

namespace ecocloud::ckpt {

void audit_into(RuntimeAuditor& auditor, AuditRound& round) {
  const std::uint64_t heals_before = auditor.stats().heals_applied;
  if (!auditor.run_audit().empty()) ++round.failed_checks;
  round.heals += auditor.stats().heals_applied - heals_before;
}

void register_robustness(obs::MetricRegistry& registry,
                         std::function<SaveStats()> saves, const SafePoints& points) {
  const auto poll = std::make_shared<std::function<SaveStats()>>(std::move(saves));
  const AuditCounters* audits = &points.audits();
  registry.counter_fn(
      "ecocloud_checkpoints_written_total",
      [poll] { return (*poll)().checkpoints_written; }, {},
      "Crash-safe snapshots written");
  registry.gauge_fn(
      "ecocloud_checkpoint_bytes_last",
      [poll] { return static_cast<double>((*poll)().snapshot_bytes_last); }, {},
      "Payload size of the most recent snapshot");
  registry.gauge_fn(
      "ecocloud_checkpoint_save_seconds_total",
      [poll] { return (*poll)().checkpoint_seconds_total; }, {},
      "Wall-clock time spent writing snapshots");
  registry.counter_fn(
      "ecocloud_audits_run_total", [audits] { return audits->audits_run; }, {},
      "Invariant audits executed");
  registry.counter_fn(
      "ecocloud_audits_failed_total", [audits] { return audits->audit_rounds_failed; },
      {}, "Invariant audits that found at least one violation");
  registry.counter_fn(
      "ecocloud_audit_heals_total", [audits] { return audits->audit_heals; }, {},
      "Cache-rebuild heal actions applied by the auditor");
}

SafePoints::SafePoints(RunControl control) : control_(std::move(control)) {}

SafePoints::~SafePoints() = default;

void SafePoints::resume_from(const std::string& path) {
  if (control_.checkpoint_out.empty()) control_.checkpoint_out = path;
}

sim::SimTime SafePoints::due_after(sim::SimTime t, sim::SimTime every) {
  return every > 0.0 ? sim::next_due(t, every) : kNever;
}

void SafePoints::start(sim::SimTime t) {
  next_audit_ = due_after(t, control_.audit_every_s);
  if (!checkpoint_path().empty()) next_ckpt_ = due_after(t, control_.checkpoint_every_s);
  if (control_.watchdog_stall_s > 0.0) {
    watchdog_ = std::make_unique<Watchdog>(Watchdog::Config{control_.watchdog_stall_s});
    watchdog_->arm();
  }
}

void SafePoints::at(sim::SimTime t, std::uint64_t executed_events,
                    const AuditFn& audit, const SaveFn& save) {
  if (t >= next_audit_) {
    AuditRound round;
    audit(round);
    ++audits_.audits_run;
    audits_.audit_failures += round.failed_checks;
    if (round.failed_checks > 0) ++audits_.audit_rounds_failed;
    audits_.audit_heals += round.heals;
    next_audit_ = due_after(t, control_.audit_every_s);
  }
  if (t >= next_ckpt_) {
    save(checkpoint_path());
    next_ckpt_ = due_after(t, control_.checkpoint_every_s);
  }
  if (watchdog_) watchdog_->beat(executed_events, t);
}

void SafePoints::finish() {
  if (watchdog_) watchdog_->disarm();
}

void SafePoints::save_state(util::BinWriter& w) const {
  w.f64(control_.checkpoint_every_s);
  w.u64(audits_.audits_run);
  w.u64(audits_.audit_failures);
  w.u64(audits_.audit_rounds_failed);
  w.u64(audits_.audit_heals);
}

void SafePoints::load_state(util::BinReader& r) {
  const double stored_every = r.f64();
  if (!(stored_every >= 0.0) || !std::isfinite(stored_every)) {
    throw std::runtime_error("invalid checkpoint cadence");
  }
  // A resume without --checkpoint-every keeps the original cadence.
  if (control_.checkpoint_every_s <= 0.0) control_.checkpoint_every_s = stored_every;
  audits_.audits_run = r.u64();
  audits_.audit_failures = r.u64();
  audits_.audit_rounds_failed = r.u64();
  audits_.audit_heals = r.u64();
}

}  // namespace ecocloud::ckpt
