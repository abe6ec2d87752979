#pragma once

/// \file auditor.hpp
/// \brief Runtime conservation-invariant auditor.
///
/// RuntimeAuditor cross-checks the simulation's derived state against
/// ground truth that can be recomputed brute-force:
///
///  * engine integrity (sim::Simulator::check_integrity): heap order,
///    ring sortedness, slab free-list uniqueness, queue_refs accounting;
///  * fleet conservation (dc::DataCenter::audit_invariants): per-server
///    load == sum of hosted VM demands, state indices == brute-force
///    scan, cached totals == recomputed totals, outbound-migration
///    counts == in-flight scan;
///  * VM ownership: no VM simultaneously placed, waiting in a boot
///    queue, and pending redeploy; in strict mode every live VM is
///    owned exactly once (daily scenario — the consolidation scenario
///    has departed VMs that are legitimately unowned forever).
///
/// A failed audit runs the configured response: kLog writes the failure
/// list to stderr and keeps going; kAbort prints a diagnostic report and
/// aborts (CI mode — corruption must not produce publishable numbers);
/// kHeal rebuilds the derived caches from ground truth and re-audits
/// (repairs only what is derivable; a conservation violation that
/// survives healing is then reported). Healing changes subsequent
/// behavior when the caches really were wrong — it is a repair action,
/// not an observer.
///
/// The auditor schedules nothing: its owner calls run_audit() at the safe
/// points where ckpt::SafePoints says an audit is due, between run slices,
/// so auditing never changes the executed event sequence.

#include <cstdint>
#include <string>
#include <vector>

#include "ecocloud/core/controller.hpp"
#include "ecocloud/dc/datacenter.hpp"
#include "ecocloud/faults/recovery.hpp"
#include "ecocloud/sim/simulator.hpp"

namespace ecocloud::ckpt {

enum class AuditAction : std::uint8_t { kLog, kAbort, kHeal };

/// Parse "log" | "abort" | "heal"; throws std::invalid_argument otherwise.
[[nodiscard]] AuditAction parse_audit_action(const std::string& text);
[[nodiscard]] const char* to_string(AuditAction action);

struct AuditorConfig {
  AuditAction action = AuditAction::kLog;

  /// Relative tolerance for floating-point conservation checks.
  double tolerance = 1e-6;

  /// Require every live VM to be owned exactly once (placed XOR
  /// boot-queued XOR redeploy-pending). Disable for open-system runs
  /// where departed VMs stay unowned.
  bool strict_vm_accounting = true;
};

class RuntimeAuditor {
 public:
  RuntimeAuditor(sim::Simulator& simulator, dc::DataCenter& datacenter,
                 AuditorConfig config);

  /// Optional deeper checks; pass nullptr to skip.
  void attach_controller(const core::EcoCloudController* controller) {
    controller_ = controller;
  }
  void attach_redeploy(const faults::RedeployQueue* queue) { redeploy_ = queue; }

  /// Run every check now. Returns the failure list (empty = clean) after
  /// applying the configured action; kAbort does not return on failure.
  std::vector<std::string> run_audit();

  struct Stats {
    std::uint64_t audits_run = 0;
    std::uint64_t audits_failed = 0;
    std::uint64_t heals_applied = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const AuditorConfig& config() const { return config_; }

 private:
  [[nodiscard]] std::vector<std::string> collect_failures() const;
  void check_vm_ownership(std::vector<std::string>& failures) const;

  sim::Simulator& sim_;
  dc::DataCenter& dc_;
  AuditorConfig config_;
  const core::EcoCloudController* controller_ = nullptr;
  const faults::RedeployQueue* redeploy_ = nullptr;
  Stats stats_;
};

}  // namespace ecocloud::ckpt
