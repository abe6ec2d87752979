#pragma once

/// \file config_io.hpp
/// \brief Load experiment configurations from `key = value` files.
///
/// Lets the CLI and scripted sweeps configure every knob without
/// recompiling. Unknown keys are rejected (typo protection); absent keys
/// keep their paper defaults. Recognized keys are documented in
/// docs/config-reference written by `ecocloud_cli help-config` and in the
/// field lists below.

#include <iosfwd>

#include "ecocloud/scenario/scenario.hpp"

namespace ecocloud::scenario {

/// Keys: servers, core_mhz, core_mix (e.g. "4,6,8"), ram_per_core_mb,
/// vms, horizon_hours, warmup_hours, seed,
/// ta, p, tl, th, alpha, beta, high_dest_factor,
/// monitor_period_s, migration_cooldown_s, migration_latency_s,
/// boot_time_s, grace_period_s, hibernate_delay_s, require_fit,
/// enable_migrations, invite_group_size,
/// reference_mhz, sample_period_s, diurnal_amplitude, diurnal_peak_hour,
/// ar1_rho, dev_base, dev_slope.
///
/// A `[faults]` section (or `faults.`-prefixed keys) configures fault
/// injection: server_mtbf_s, server_mttr_s, migration_abort_prob,
/// boot_failure_prob, max_boot_retries, invitation_loss_prob,
/// reply_loss_prob, max_invite_rounds, redeploy_delay_s,
/// redeploy_backoff_s, redeploy_backoff_max_s, redeploy_max_attempts,
/// and schedule (e.g.
/// "crash 10-20 3600 600, repair 5 7200"). All zero by default.
///
/// A `[checkpoint]` section (out, every_s), an `[audit]` section
/// (every_s, action = log|abort|heal, tolerance, strict) and a
/// `[watchdog]` section (stall_s) configure the robustness machinery
/// (ckpt::RunControl); all disabled by default.
[[nodiscard]] DailyConfig load_daily_config(std::istream& in);

/// Keys: servers, cores_per_server, core_mhz, initial_vms, horizon_hours,
/// mean_lifetime_hours, metrics_period_s, seed, plus the algorithm and
/// workload keys of load_daily_config (migrations stay disabled).
[[nodiscard]] ConsolidationConfig load_consolidation_config(std::istream& in);

}  // namespace ecocloud::scenario
