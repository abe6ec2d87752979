// ecocloud_cli — command-line driver for the ecoCloud simulation suite.
//
//   ecocloud_cli run-daily [--config FILE] [--csv FILE]
//   ecocloud_cli run-consolidation [--config FILE] [--csv FILE]
//   ecocloud_cli serve [--port P] [--workers W] [--data-dir DIR]
//   ecocloud_cli gen-traces --out DIR [--vms N] [--hours H] [--seed S]
//   ecocloud_cli functions [--ta X] [--p X] [--tl X] [--th X]
//                          [--alpha X] [--beta X]
//   ecocloud_cli help-config
//
// Experiments are configured with `key = value` files (see help-config);
// absent keys keep the paper's defaults, unknown keys are rejected.

#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ecocloud/ckpt/auditor.hpp"
#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/ckpt/safe_points.hpp"
#include "ecocloud/core/probability.hpp"
#include "ecocloud/metrics/episode_summary.hpp"
#include "ecocloud/obs/chrome_trace.hpp"
#include "ecocloud/obs/exporters.hpp"
#include "ecocloud/obs/http_server.hpp"
#include "ecocloud/obs/instrumentation.hpp"
#include "ecocloud/obs/logger.hpp"
#include "ecocloud/obs/metric_registry.hpp"
#include "ecocloud/obs/profiler.hpp"
#include "ecocloud/obs/progress.hpp"
#include "ecocloud/par/sharded_runner.hpp"
#include "ecocloud/par/sharded_telemetry.hpp"
#include "ecocloud/scenario/config_io.hpp"
#include "ecocloud/srv/server.hpp"
#include "ecocloud/stats/quantile.hpp"
#include "ecocloud/trace/planetlab_io.hpp"
#include "ecocloud/util/csv.hpp"
#include "ecocloud/util/exit_codes.hpp"
#include "ecocloud/util/string_util.hpp"
#include "ecocloud/util/validation.hpp"

using namespace ecocloud;

namespace {

/// Minimal --key value parser; every option takes exactly one argument.
class Options {
 public:
  Options(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::invalid_argument("bad option or missing value: " + key);
      }
      values_[key.substr(2)] = argv[++i];
    }
  }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    used_.insert(key);
    return it->second;
  }

  [[nodiscard]] double get_double(const std::string& key, double fallback) {
    const auto value = get(key);
    return value ? util::parse_double(*value) : fallback;
  }

  /// Integer flag in [lo, hi]: plain decimal digits only — a sign, a
  /// fraction, an exponent or a value beyond 64 bits is rejected instead of
  /// being wrapped or rounded through a double.
  [[nodiscard]] std::uint64_t get_uint(
      const std::string& key, std::uint64_t fallback, std::uint64_t lo = 0,
      std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
    const auto value = get(key);
    if (!value) return fallback;
    std::uint64_t parsed = 0;
    const char* end = value->data() + value->size();
    const auto [ptr, ec] = std::from_chars(value->data(), end, parsed);
    if (ec != std::errc{} || ptr != end || parsed < lo || parsed > hi) {
      throw std::invalid_argument(
          "--" + key + " wants an integer " +
          (hi == std::numeric_limits<std::uint64_t>::max()
               ? ">= " + std::to_string(lo)
               : "in " + std::to_string(lo) + ".." + std::to_string(hi)) +
          ", got '" + *value + "'");
    }
    return parsed;
  }

  void reject_unknown() const {
    for (const auto& [key, value] : values_) {
      if (used_.count(key) == 0) {
        throw std::invalid_argument("unknown option --" + key);
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> used_;
};

/// Fail fast on unwritable output paths: probe with an append-open before
/// the (possibly hours-long) run instead of erroring at exit. A file the
/// probe newly created is removed again.
void require_writable(const std::string& path) {
  const bool existed = static_cast<bool>(std::ifstream(path));
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    // A bad output path is a configuration error (exit code 2), caught
    // before the (possibly hours-long) run instead of at exit.
    throw std::invalid_argument("cannot write to '" + path +
                                "' (checked before starting the run)");
  }
  std::fclose(file);
  if (!existed) std::remove(path.c_str());
}

/// Open \p path for writing (or fail) and hand the stream to \p write.
template <typename WriteFn>
void write_output(const std::string& path, WriteFn write) {
  std::ofstream out(path);
  util::require(out.good(), "cannot open " + path);
  write(out);
}

/// Live observability plane shared by all run modes: --serve-metrics
/// (embedded HTTP scrape endpoint), --profile-out (phase profiler +
/// folded-stacks dump), --progress (stderr ticker). Everything here is a
/// pure observer — snapshots are rendered on the sim thread at safe
/// points and the HTTP thread serves only the cached strings.
class LivePlane {
 public:
  explicit LivePlane(Options& options) {
    // A TCP port; 0 picks an ephemeral one.
    serve_ = options.get("serve-metrics").has_value();
    port_ = static_cast<std::uint16_t>(
        options.get_uint("serve-metrics", 0, 0, 65535));
    profile_path_ = options.get("profile-out");
    if (profile_path_) require_writable(*profile_path_);
    if (const auto mode = options.get("progress")) {
      if (*mode == "on") {
        progress_ = true;
      } else if (*mode == "off") {
        progress_ = false;
      } else if (*mode == "auto") {
        // Auto: only when a human is plausibly watching.
        progress_ = isatty(fileno(stderr)) != 0;
      } else {
        throw std::invalid_argument("bad --progress '" + *mode +
                                    "' (want auto|on|off)");
      }
    }
  }

  [[nodiscard]] bool any() const {
    return serve_ || profile_path_.has_value() || progress_;
  }
  [[nodiscard]] bool profiling() const { return profile_path_.has_value(); }

  /// Build the profiler (when profiling) and bind the HTTP server (when
  /// serving). \p num_domains: 1 single-calendar, K+1 sharded. The
  /// registry must outlive this object.
  void start(obs::MetricRegistry& registry, std::size_t num_domains) {
    if (!any()) return;
    registry_ = &registry;
    if (profiling()) {
      core_.emplace(num_domains);
      profiler_.emplace(*core_, registry);
    }
    if (serve_) {
      server_.emplace(hub_, port_);
      std::printf(
          "serving /metrics /progress /healthz on http://127.0.0.1:%u\n",
          static_cast<unsigned>(server_->port()));
    }
  }

  /// The profiler core, for ShardedDailyRun::set_profiler / the main
  /// thread's domain installation. Null when not profiling.
  [[nodiscard]] util::PhaseProfiler* core() {
    return core_ ? &*core_ : nullptr;
  }
  [[nodiscard]] obs::Profiler* profiler() {
    return profiler_ ? &*profiler_ : nullptr;
  }

  /// Anchor wall-clock zero and publish a first snapshot so a scrape
  /// racing the run start already gets a document.
  void begin(double sim_start_s, double horizon_s, std::uint64_t events) {
    if (!any()) return;
    tracker_.begin(sim_start_s, horizon_s);
    publish(sim_start_s, events);
  }

  void set_shards(std::vector<obs::ShardProgress> shards) {
    tracker_.set_shards(std::move(shards));
  }

  /// Refresh everything at a safe point: profiler registry mirrors, the
  /// /metrics and /progress snapshots, and the stderr ticker.
  void publish(double sim_now_s, std::uint64_t events) {
    if (registry_ == nullptr) return;
    tracker_.update(sim_now_s, events);
    if (profiler_) profiler_->publish(tracker_.wall_seconds());
    if (server_) {
      std::ostringstream prom;
      obs::write_prometheus(*registry_, prom);
      hub_.publish_metrics(prom.str());
      hub_.publish_progress(tracker_.to_json());
    }
    if (progress_) tracker_.maybe_tick(stderr);
  }

  /// Final publish, folded-stacks dump, and the overhead summary. The
  /// HTTP server keeps answering until this object goes out of scope.
  void finish(double sim_now_s, std::uint64_t events) {
    if (registry_ == nullptr) return;
    publish(sim_now_s, events);
    if (profiler_) {
      write_output(*profile_path_,
                   [this](std::ostream& out) { profiler_->write_folded(out); });
      std::printf("folded stacks written to %s\n", profile_path_->c_str());
      profiler_->print_summary(stdout);
    }
  }

 private:
  bool serve_ = false;
  std::uint16_t port_ = 0;
  std::optional<std::string> profile_path_;
  bool progress_ = false;
  obs::MetricRegistry* registry_ = nullptr;
  std::optional<util::PhaseProfiler> core_;
  std::optional<obs::Profiler> profiler_;
  obs::SnapshotHub hub_;
  std::optional<obs::HttpServer> server_;
  obs::ProgressTracker tracker_;
};

/// Telemetry output flags shared by run-daily and run-consolidation
/// (--metrics-out, --metrics-json, --trace-out, --log-out, --log-level).
struct TelemetryFlags {
  explicit TelemetryFlags(Options& options)
      : metrics_path(options.get("metrics-out")),
        json_path(options.get("metrics-json")),
        trace_path(options.get("trace-out")),
        log_path(options.get("log-out")) {
    if (const auto name = options.get("log-level")) {
      const auto parsed = obs::parse_log_level(*name);
      util::require(parsed.has_value(),
                    "bad --log-level '" + *name +
                        "' (want trace|debug|info|warn|error|off)");
      level = *parsed;
    }
    // A log file without an explicit level records info and above.
    if (log_path && level == obs::LogLevel::kOff) level = obs::LogLevel::kInfo;
  }

  [[nodiscard]] bool any() const {
    return metrics_path || json_path || trace_path || log_path ||
           level != obs::LogLevel::kOff;
  }

  /// Fail fast on unwritable output paths, before the run starts.
  void probe() const {
    for (const auto& path : {metrics_path, json_path, trace_path, log_path}) {
      if (path) require_writable(*path);
    }
  }

  /// Write the --metrics-out / --metrics-json exports of \p registry.
  void write_metrics(const obs::MetricRegistry& registry) const {
    if (metrics_path) {
      write_output(*metrics_path, [&](std::ostream& out) {
        obs::write_prometheus(registry, out);
      });
      std::printf("metrics written to %s (%zu series)\n", metrics_path->c_str(),
                  registry.num_instances());
    }
    if (json_path) {
      write_output(*json_path,
                   [&](std::ostream& out) { obs::write_json(registry, out); });
      std::printf("metrics JSON written to %s\n", json_path->c_str());
    }
  }

  std::optional<std::string> metrics_path;
  std::optional<std::string> json_path;
  std::optional<std::string> trace_path;
  std::optional<std::string> log_path;
  obs::LogLevel level = obs::LogLevel::kOff;
};

/// Run-control flags shared by run-daily and run-consolidation: they
/// override the config file's [checkpoint] / [audit] / [watchdog] sections
/// in \p run. Returns the --resume-from path, if any.
std::optional<std::string> parse_run_control(Options& options,
                                             ckpt::RunControl& run) {
  if (const auto v = options.get("checkpoint-out")) run.checkpoint_out = *v;
  run.checkpoint_every_s =
      options.get_double("checkpoint-every", run.checkpoint_every_s);
  auto resume_path = options.get("resume-from");
  run.audit_every_s = options.get_double("audit-every", run.audit_every_s);
  if (const auto v = options.get("audit-action")) run.audit_action = *v;
  run.watchdog_stall_s =
      options.get_double("watchdog-stall", run.watchdog_stall_s);
  if (!run.checkpoint_out.empty()) {
    util::require(run.checkpoint_every_s > 0.0 || resume_path.has_value(),
                  "--checkpoint-out needs --checkpoint-every SECONDS (> 0)");
    require_writable(run.checkpoint_out);
  }
  return resume_path;
}

/// --events output format: compact binary records by default (decode with
/// eventlog2csv); an explicit .csv suffix keeps the legacy text format.
bool events_path_wants_csv(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
}

int usage() {
  std::puts(
      "usage: ecocloud_cli <command> [options]\n"
      "\n"
      "commands:\n"
      "  run-daily          48-hour trace-driven experiment (paper Sec. III)\n"
      "    --config FILE    key=value configuration (default: paper setup)\n"
      "    --csv FILE       also write the 30-minute series as CSV\n"
      "    --events FILE    also write the full decision event log (compact\n"
      "                     binary; convert with eventlog2csv; a .csv suffix\n"
      "                     writes the legacy text format directly)\n"
      "    --metrics-out F  write Prometheus text-format metrics at exit\n"
      "    --metrics-json F write a JSON metrics snapshot at exit\n"
      "    --trace-out F    write a Chrome trace-event timeline (open the\n"
      "                     file in ui.perfetto.dev)\n"
      "    --log-out F      structured JSONL log (default level info)\n"
      "    --log-level L    trace|debug|info|warn|error|off (stderr when no\n"
      "                     --log-out is given)\n"
      "    --checkpoint-out F   write crash-safe snapshots to F\n"
      "    --checkpoint-every S snapshot cadence in sim seconds\n"
      "    --resume-from F      restore a snapshot and finish the run\n"
      "                         (bit-identical to the uninterrupted run)\n"
      "    --audit-every S      run the invariant auditor every S sim secs\n"
      "    --audit-action A     log | abort | heal on a failed audit\n"
      "    --watchdog-stall S   abort after S wall seconds without progress\n"
      "    --serve-metrics P  live scrape endpoint on 127.0.0.1:P while the\n"
      "                     run executes (GET /metrics /progress /healthz;\n"
      "                     P=0 picks an ephemeral port, printed at start)\n"
      "    --profile-out F  phase profiler: folded-stacks dump to F (feed to\n"
      "                     flamegraph.pl) plus per-phase histograms in the\n"
      "                     metrics outputs and a summary on stdout\n"
      "    --progress M     auto|on|off stderr progress ticker (auto = only\n"
      "                     when stderr is a TTY; at most one line/second)\n"
      "    --shards K       sharded parallel engine: K independent shards\n"
      "                     (default 1), deterministic output for fixed K\n"
      "                     regardless of thread count; composes with\n"
      "                     checkpointing, auditing, faults, and telemetry\n"
      "    --threads N      worker threads for the shards (default: all\n"
      "                     cores, at most K)\n"
      "    --sync-interval S  epoch barrier period in sim seconds (300)\n"
      "  run-consolidation  assignment-only experiment (paper Sec. IV)\n"
      "    --config FILE, --csv FILE, telemetry and robustness options as\n"
      "    above\n"
      "  serve              campaign server: accept scenario submissions over\n"
      "                     HTTP and run them to completion (crash-tolerant;\n"
      "                     see DESIGN.md Sec. 16)\n"
      "    --port P         API port (default 0 = ephemeral, printed at start)\n"
      "    --workers N      concurrent campaign executions (default 2)\n"
      "    --queue-capacity N  queued submissions before 429 (default 8)\n"
      "    --data-dir DIR   journal/checkpoints/event logs (default campaigns)\n"
      "    --slice S        sim-seconds per slice between safe points (1800)\n"
      "    --checkpoint-every-slices N  periodic durability cadence (4)\n"
      "    --rss-high-mb M  checkpoint+pause the largest campaign above M MB\n"
      "    --rss-low-mb M   resume paused campaigns below M MB (0.9*high)\n"
      "    --retry-after S  Retry-After header on 429 responses (5)\n"
      "                     SIGTERM drains: admission stops (503), in-flight\n"
      "                     campaigns checkpoint at the next safe point, the\n"
      "                     journal is flushed, exit code 0\n"
      "  gen-traces         write a synthetic PlanetLab-format trace directory\n"
      "    --out DIR [--vms N] [--hours H] [--seed S]\n"
      "  functions          print f_a / f_l / f_h tables\n"
      "    [--ta X] [--p X] [--tl X] [--th X] [--alpha X] [--beta X]\n"
      "  help-config        list every configuration key\n"
      "\n"
      "exit codes: 0 success, 1 runtime failure, 2 configuration error,\n"
      "            4 audit violation (action=abort), 5 watchdog stall");
  return util::exit_code::kConfigError;
}

void write_series_csv(const std::string& path,
                      const std::vector<metrics::Sample>& samples) {
  write_output(path, [&samples](std::ostream& out) {
    util::CsvWriter csv(out);
    csv.header({"time_s", "active_servers", "booting", "overall_load",
                "power_w", "overload_percent", "window_energy_j"});
    for (const auto& s : samples) {
      csv.row(std::vector<double>{s.time, static_cast<double>(s.active_servers),
                                  static_cast<double>(s.booting_servers),
                                  s.overall_load, s.power_w, s.overload_percent,
                                  s.window_energy_j});
    }
  });
  std::printf("series written to %s (%zu samples)\n", path.c_str(),
              samples.size());
}

template <typename LoadFn>
auto load_config(Options& options, LoadFn load) {
  if (const auto path = options.get("config")) {
    std::ifstream in(*path);
    util::require(in.good(), "cannot open config file " + *path);
    return load(in);
  }
  std::istringstream empty;
  return load(empty);
}

/// The end-of-run audit and checkpoint lines of both run commands (their
/// safe points are run-daily's barriers and run-consolidation's slice ends).
void print_safe_point_summary(const ckpt::SaveStats& saves,
                              const ckpt::AuditCounters& audits,
                              const std::string& action) {
  if (audits.audits_run > 0) {
    std::printf("audits            %llu barrier rounds, %llu failed checks "
                "(action=%s)\n",
                static_cast<unsigned long long>(audits.audits_run),
                static_cast<unsigned long long>(audits.audit_failures),
                action.c_str());
  }
  if (saves.checkpoints_written > 0) {
    std::printf("checkpoints       %llu written (last %llu bytes, %.1f ms)\n",
                static_cast<unsigned long long>(saves.checkpoints_written),
                static_cast<unsigned long long>(saves.snapshot_bytes_last),
                1e3 * saves.checkpoint_seconds_last);
  }
}

/// The end-of-run report of a daily run, summed over the shards (K=1 is
/// the single-calendar run).
void print_daily_summary(par::ShardedDailyRun& run) {
  double vm_seconds = 0.0;
  double overload_vm_seconds = 0.0;
  std::vector<dc::OverloadEpisode> episodes;
  std::uint64_t messages = 0, invitations = 0, messages_lost = 0;
  std::uint64_t interrupted = 0, aborted = 0, boot_failures = 0;
  for (std::size_t k = 0; k < run.num_shards(); ++k) {
    const dc::DataCenter& d = run.shard(k).datacenter();
    vm_seconds += d.vm_seconds();
    overload_vm_seconds += d.overload_vm_seconds();
    episodes.insert(episodes.end(), d.overload_episodes().begin(),
                    d.overload_episodes().end());
    const core::EcoCloudController& eco = run.shard(k).controller();
    messages += eco.messages().total();
    invitations += eco.messages().invitations_sent;
    messages_lost += eco.messages().invitations_lost + eco.messages().replies_lost;
    interrupted += eco.interrupted_migrations();
    aborted += eco.aborted_migrations();
    boot_failures += eco.boot_failures();
  }
  const auto violations = metrics::summarize_episodes(episodes);
  const par::ParStats& s = run.stats();
  std::printf("energy            %.1f kWh\n", run.total_energy_kwh());
  std::printf("migrations        %llu (%llu low / %llu high, %llu cross-shard)\n",
              static_cast<unsigned long long>(s.migrations),
              static_cast<unsigned long long>(s.low_migrations),
              static_cast<unsigned long long>(s.high_migrations),
              static_cast<unsigned long long>(s.cross_shard_migrations));
  std::printf("switches          %llu on / %llu off\n",
              static_cast<unsigned long long>(s.activations),
              static_cast<unsigned long long>(s.hibernations));
  std::printf("over-demand       %.4f%% of VM-time; %zu violations, %.1f%% <30 s\n",
              vm_seconds > 0.0 ? 100.0 * overload_vm_seconds / vm_seconds : 0.0,
              violations.count, 100.0 * violations.fraction_under_30s);
  std::printf("control plane     %llu messages (%llu invitations)\n",
              static_cast<unsigned long long>(messages),
              static_cast<unsigned long long>(invitations));
  std::printf("engine            %llu events over %llu barriers; "
              "%llu stranded wishes\n",
              static_cast<unsigned long long>(s.executed_events),
              static_cast<unsigned long long>(s.barriers),
              static_cast<unsigned long long>(s.stranded_wishes));
  if (run.shard(0).fault_injector() != nullptr) {
    std::uint64_t crashes = 0, repairs = 0, orphans = 0, redeployed = 0,
                  abandoned = 0;
    double downtime = 0.0;
    stats::QuantileSketch redeploy;
    for (std::size_t k = 0; k < run.num_shards(); ++k) {
      const metrics::ResilienceStats& r = run.shard(k).fault_injector()->stats();
      crashes += r.crashes();
      repairs += r.repairs();
      orphans += r.orphaned_vms();
      redeployed += r.redeployed_vms();
      abandoned += r.abandoned_vms();
      downtime += r.downtime_vm_seconds();
      redeploy.merge(r.redeploy_quantiles());
    }
    std::printf("faults            %llu crashes / %llu repairs; "
                "%llu orphans (%llu redeployed, %llu abandoned)\n",
                static_cast<unsigned long long>(crashes),
                static_cast<unsigned long long>(repairs),
                static_cast<unsigned long long>(orphans),
                static_cast<unsigned long long>(redeployed),
                static_cast<unsigned long long>(abandoned));
    std::printf("                  %llu migrations interrupted, %llu aborted, "
                "%llu boot failures; %llu messages lost\n",
                static_cast<unsigned long long>(interrupted),
                static_cast<unsigned long long>(aborted),
                static_cast<unsigned long long>(boot_failures),
                static_cast<unsigned long long>(messages_lost));
    // Served / (served + downtime), as FaultInjector::availability.
    const double demanded = vm_seconds + downtime;
    std::printf("availability      %.6f%% (%.1f VM-min downtime, "
                "median redeploy %.1f s)\n",
                100.0 * (demanded > 0.0 ? vm_seconds / demanded : 1.0),
                downtime / 60.0, redeploy.empty() ? 0.0 : redeploy.median());
  }
  print_safe_point_summary(s, s, run.config().run.audit_action);
}

/// run-daily: one code path for every shard count. K=1 (the default) is
/// the single-calendar run; checkpoints, audits and watchdog beats happen
/// at epoch barriers for every K.
int run_daily(Options& options) {
  auto config = load_config(options, scenario::load_daily_config);
  const auto csv_path = options.get("csv");
  const auto events_path = options.get("events");
  const auto resume_path = parse_run_control(options, config.run);
  const TelemetryFlags telemetry_flags(options);

  par::ParConfig par;
  par.shards = options.get_uint("shards", par.shards, 1);
  par.threads = options.get_uint("threads", par.threads);
  par.sync_interval_s = options.get_double("sync-interval", par.sync_interval_s);
  util::require(par.sync_interval_s > 0.0,
                "--sync-interval wants a positive number of sim seconds");
  if (par.sync_interval_s > config.horizon_s) {
    std::fprintf(stderr,
                 "warning: --sync-interval %.0f s exceeds the %.0f s horizon; "
                 "the whole run is one epoch and cross-shard hand-off only "
                 "happens at the end\n",
                 par.sync_interval_s, config.horizon_s);
  } else if (par.sync_interval_s > 86400.0) {
    std::fprintf(stderr,
                 "warning: --sync-interval %.0f s exceeds a simulated day; "
                 "stranded migrations wait that long for a cross-shard "
                 "hand-off\n",
                 par.sync_interval_s);
  }
  LivePlane live(options);
  options.reject_unknown();
  for (const auto& path : {csv_path, events_path}) {
    if (path) require_writable(*path);
  }
  telemetry_flags.probe();

  par::ShardedDailyRun run(std::move(config), par);
  run.set_record_events(events_path.has_value());
  const scenario::DailyConfig& cfg = run.config();
  std::printf(
      "daily run: %zu servers, %zu VMs, %g h (+%g h warm-up), "
      "%zu shard%s on %zu thread%s\n",
      cfg.fleet.num_servers, cfg.num_vms,
      (cfg.horizon_s - cfg.warmup_s) / sim::kHour, cfg.warmup_s / sim::kHour,
      run.num_shards(), run.num_shards() == 1 ? "" : "s", run.num_threads(),
      run.num_threads() == 1 ? "" : "s");
  if (resume_path) {
    run.restore_snapshot(*resume_path);
    std::printf("resumed from %s at t=%.0f s (%llu events executed)\n",
                resume_path->c_str(), run.now(),
                static_cast<unsigned long long>(run.executed_events()));
  }

  std::optional<par::ShardedTelemetry> telemetry;
  if (telemetry_flags.any() || live.any()) {
    par::ShardedTelemetry::Options topt;
    topt.trace = telemetry_flags.trace_path.has_value();
    topt.log_level = telemetry_flags.level;
    telemetry.emplace(run, topt);
  }

  // The live plane hangs off the barrier hook (chained AFTER the
  // ShardedTelemetry one so its counters are fresh when the snapshot is
  // rendered): refresh per-shard epoch/lag gauges, then publish /metrics
  // and /progress. No calendar events, no RNG — pure observer.
  std::vector<obs::Gauge*> epoch_gauges;
  std::vector<obs::Gauge*> lag_gauges;
  if (live.any()) {
    obs::MetricRegistry& registry = telemetry->registry();
    live.start(registry, run.num_shards() + 1);
    run.set_profiler(live.core());
    for (std::size_t k = 0; k < run.num_shards(); ++k) {
      const obs::Labels labels{{"shard", std::to_string(k)}};
      epoch_gauges.push_back(
          &registry.gauge("ecocloud_shard_epoch_wall_seconds", labels,
                          "Wall seconds the shard spent on the last epoch"));
      lag_gauges.push_back(&registry.gauge(
          "ecocloud_shard_barrier_lag_seconds", labels,
          "How long the shard waited for the slowest one at the last barrier"));
    }
    auto prev = std::move(run.on_barrier);
    run.on_barrier = [&run, &live, &epoch_gauges, &lag_gauges,
                      prev = std::move(prev)](sim::SimTime t) {
      if (prev) prev(t);
      std::vector<obs::ShardProgress> progress;
      progress.reserve(run.num_shards());
      for (std::size_t k = 0; k < run.num_shards(); ++k) {
        epoch_gauges[k]->set(run.last_epoch_wall_s()[k]);
        lag_gauges[k]->set(run.last_barrier_lag_s()[k]);
        progress.push_back({.shard = static_cast<int>(k),
                            .epoch_wall_s = run.last_epoch_wall_s()[k],
                            .barrier_lag_s = run.last_barrier_lag_s()[k],
                            .events = run.shard(k).simulator().executed_events()});
      }
      live.set_shards(std::move(progress));
      live.publish(t, run.executed_events());
    };
    live.begin(run.now(), cfg.horizon_s, run.executed_events());
  }

  run.run();
  if (telemetry) telemetry->finalize(cfg.horizon_s);
  live.finish(cfg.horizon_s, run.stats().executed_events);

  print_daily_summary(run);
  if (csv_path) write_series_csv(*csv_path, run.merged_samples());
  if (events_path) {
    const bool as_csv = events_path_wants_csv(*events_path);
    std::ofstream out(*events_path,
                      as_csv ? std::ios::out : std::ios::out | std::ios::binary);
    util::require(out.good(), "cannot open " + *events_path);
    if (as_csv) {
      run.write_events_csv(out);
    } else {
      run.write_events_binary(out);
    }
    std::printf("event log written to %s%s\n", events_path->c_str(),
                as_csv ? "" : " (binary; convert with eventlog2csv)");
  }
  if (telemetry) {
    telemetry_flags.write_metrics(telemetry->registry());
    if (telemetry_flags.trace_path) {
      write_output(*telemetry_flags.trace_path,
                   [&](std::ostream& out) { telemetry->write_trace(out); });
      std::printf("trace written to %s (open in ui.perfetto.dev)\n",
                  telemetry_flags.trace_path->c_str());
    }
    if (telemetry_flags.log_path) {
      write_output(*telemetry_flags.log_path,
                   [&](std::ostream& out) { telemetry->write_log(out); });
      std::printf("log written to %s (%llu lines, shard-merged)\n",
                  telemetry_flags.log_path->c_str(),
                  static_cast<unsigned long long>(telemetry->log_lines()));
    } else if (telemetry_flags.level != obs::LogLevel::kOff) {
      telemetry->write_log(std::clog);
    }
  }
  return 0;
}

/// run-consolidation: one calendar driven in slices of kSafePointS sim
/// seconds. Every slice boundary is a safe point, as ShardedDailyRun's
/// barriers are: the audits and checkpoints that are due run, the watchdog
/// beats, telemetry flushes and the live plane publishes. None of it is a
/// calendar event, so the executed events do not depend on which of them
/// are enabled.
int run_consolidation(Options& options) {
  /// Sim-time between safe points (the telemetry flush cadence).
  constexpr sim::SimTime kSafePointS = 300.0;

  auto config = load_config(options, scenario::load_consolidation_config);
  const auto csv_path = options.get("csv");
  LivePlane live(options);
  const auto resume_path = parse_run_control(options, config.run);
  const TelemetryFlags telemetry_flags(options);
  options.reject_unknown();
  if (csv_path) require_writable(*csv_path);
  telemetry_flags.probe();

  std::printf("consolidation run: %zu servers, %zu initial VMs, %g h\n",
              config.num_servers, config.initial_vms,
              config.horizon_s / sim::kHour);
  scenario::ConsolidationScenario cons(config);
  sim::Simulator& sim = cons.simulator();
  ckpt::SafePoints safe_points(cons.config().run);
  if (resume_path) safe_points.resume_from(*resume_path);

  obs::MetricRegistry registry;
  obs::Logger logger;
  std::optional<obs::ChromeTraceWriter> trace;
  std::ofstream log_file;
  std::optional<obs::Instrumentation> instr;
  if (telemetry_flags.any() || live.any()) {
    if (telemetry_flags.trace_path) trace.emplace();
    if (telemetry_flags.log_path) {
      log_file.open(*telemetry_flags.log_path);
      util::require(log_file.good(), "cannot open " + *telemetry_flags.log_path);
      logger.set_sink(&log_file);
    } else if (telemetry_flags.level != obs::LogLevel::kOff) {
      logger.set_sink(&std::clog);
    }
    logger.set_level(telemetry_flags.level);
    logger.set_clock([&sim] { return sim.now(); });
    instr.emplace(registry, logger, trace ? &*trace : nullptr);
    instr->attach_engine(sim);
    instr->attach_datacenter(cons.datacenter());
    instr->attach_controller(cons.controller());
    live.start(registry, /*num_domains=*/1);
    if (live.core() != nullptr) {
      // Single-calendar runs execute on this thread; one domain covers it.
      util::set_current_domain(&live.core()->domain(0));
    }
  }

  const ckpt::RunControl& rc = safe_points.control();
  std::optional<ckpt::RuntimeAuditor> auditor;
  if (safe_points.auditing()) {
    auditor.emplace(sim, cons.datacenter(),
                    ckpt::AuditorConfig{
                        .action = ckpt::parse_audit_action(rc.audit_action),
                        .tolerance = rc.audit_tolerance,
                        .strict_vm_accounting = rc.audit_strict});
    auditor->attach_controller(&cons.controller());
  }
  std::optional<ckpt::CheckpointManager> manager;
  if (!safe_points.checkpoint_path().empty()) {
    manager.emplace(sim);
    cons.register_checkpoint(*manager);
    manager->add_section(
        "safe_points", [&safe_points](util::BinWriter& w) { safe_points.save_state(w); },
        [&safe_points](util::BinReader& r) { safe_points.load_state(r); });
  }
  const auto saves = [&manager] { return manager ? manager->stats() : ckpt::SaveStats{}; };
  if (instr && safe_points.active()) {
    ckpt::register_robustness(registry, saves, safe_points);
  }

  if (resume_path) {
    manager->restore(*resume_path);
    std::printf("resumed from %s at t=%.0f s (%llu events executed)\n",
                resume_path->c_str(), sim.now(),
                static_cast<unsigned long long>(sim.executed_events()));
  } else {
    cons.start();
  }
  live.begin(sim.now(), config.horizon_s, sim.executed_events());
  safe_points.start(sim.now());
  // The first safe point is the start, so the trace's counter tracks begin
  // there; audits and checkpoints are first due one cadence later.
  for (bool done = false;;) {
    const sim::SimTime t = sim.now();
    safe_points.at(
        t, sim.executed_events(),
        [&auditor](ckpt::AuditRound& round) { ckpt::audit_into(*auditor, round); },
        [&manager](const std::string& path) { manager->save(path); });
    if (instr) {
      instr->flush_now(t);
      if (trace && live.profiler() != nullptr) {
        live.profiler()->emit_counter_track(*trace, t);
      }
    }
    live.publish(t, sim.executed_events());
    if (done) break;
    done = cons.run_slice(sim::next_due(t, kSafePointS));
  }
  safe_points.finish();
  cons.finish();

  print_safe_point_summary(saves(), safe_points.audits(), rc.audit_action);
  live.finish(sim.now(), sim.executed_events());
  if (instr) {
    instr->finalize(sim.now());
    if (trace && live.profiler() != nullptr) {
      live.profiler()->emit_counter_track(*trace, sim.now());
    }
    telemetry_flags.write_metrics(registry);
    if (telemetry_flags.trace_path) {
      write_output(*telemetry_flags.trace_path,
                   [&trace](std::ostream& out) { trace->write(out); });
      std::printf("trace written to %s (%zu events; open in ui.perfetto.dev)\n",
                  telemetry_flags.trace_path->c_str(), trace->size());
    }
    if (telemetry_flags.log_path) {
      std::printf("log written to %s (%llu lines)\n",
                  telemetry_flags.log_path->c_str(),
                  static_cast<unsigned long long>(logger.lines_written()));
    }
  }
  const auto& d = cons.datacenter();
  std::printf("final: %zu active / %zu hibernated; arrivals=%llu departures=%llu "
              "rejections=%llu\n",
              d.active_server_count(),
              d.num_servers() - d.active_server_count() - d.booting_server_count(),
              static_cast<unsigned long long>(cons.open_system().total_arrivals()),
              static_cast<unsigned long long>(cons.open_system().total_departures()),
              static_cast<unsigned long long>(cons.open_system().total_rejections()));
  if (csv_path) write_series_csv(*csv_path, cons.collector().samples());
  return 0;
}

int gen_traces(Options& options) {
  const auto out_dir = options.get("out");
  util::require(out_dir.has_value(), "gen-traces requires --out DIR");
  const double hours = options.get_double("hours", 48.0);
  const std::size_t vms = options.get_uint("vms", 6000, 1);
  const std::uint64_t seed = options.get_uint("seed", 1);
  options.reject_unknown();

  // The step-count cast below is only defined for values size_t can hold.
  const double samples = hours * 3600.0 / 300.0;
  util::require(std::isfinite(hours) && hours > 0.0 && samples < 1e19,
                "--hours must be finite, > 0 and small enough to count its steps");

  trace::WorkloadModel model;
  util::Rng rng(seed);
  const auto steps = static_cast<std::size_t>(samples) + 1;
  const auto set = trace::TraceSet::generate(model, vms, steps, rng);
  trace::write_planetlab_dir(set, *out_dir);
  std::printf("wrote %zu traces x %zu samples (5-min cadence) to %s\n", vms,
              steps, out_dir->c_str());
  return 0;
}

int functions(Options& options) {
  const double ta = options.get_double("ta", 0.9);
  const double p = options.get_double("p", 3.0);
  const double tl = options.get_double("tl", 0.5);
  const double th = options.get_double("th", 0.95);
  const double alpha = options.get_double("alpha", 0.25);
  const double beta = options.get_double("beta", 0.25);
  options.reject_unknown();

  const core::AssignmentFunction fa(ta, p);
  const core::LowMigrationFunction fl(tl, alpha);
  const core::HighMigrationFunction fh(th, beta);
  std::printf("u,fa,fl,fh   (Ta=%.2f p=%.1f Tl=%.2f Th=%.2f a=%.2f b=%.2f; "
              "fa peaks at u=%.3f)\n", ta, p, tl, th, alpha, beta, fa.argmax());
  for (int i = 0; i <= 50; ++i) {
    const double u = i / 50.0;
    std::printf("%.2f,%.4f,%.4f,%.4f\n", u, fa(u), fl(u), fh(u));
  }
  return 0;
}

/// SIGTERM/SIGINT flag for the `serve` loop. A plain flag (no locks, no
/// allocation) is all a signal handler may touch; the main thread polls
/// it and runs the actual drain protocol in normal context.
volatile std::sig_atomic_t g_serve_stop = 0;

void serve_signal_handler(int) { g_serve_stop = 1; }

int serve(Options& options) {
  srv::ServerConfig config;
  config.port = static_cast<std::uint16_t>(options.get_uint("port", 0, 0, 65535));
  config.workers = options.get_uint("workers", 2, 1);
  config.queue_capacity = options.get_uint("queue-capacity", 8, 1);
  if (const auto dir = options.get("data-dir")) config.data_dir = *dir;
  config.slice_s = options.get_double("slice", config.slice_s);
  util::require(config.slice_s > 0.0,
                "--slice wants a positive number of sim seconds");
  config.checkpoint_every_slices =
      options.get_uint("checkpoint-every-slices", config.checkpoint_every_slices);
  config.rss_high_mb = options.get_double("rss-high-mb", 0.0);
  config.rss_low_mb = options.get_double("rss-low-mb", 0.0);
  config.retry_after_s = static_cast<int>(options.get_uint(
      "retry-after", 5, 0, std::numeric_limits<int>::max()));
  options.reject_unknown();

  srv::CampaignServer server(std::move(config));
  server.start();
  std::printf("campaign server listening on http://127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  if (server.recovered_campaigns() > 0) {
    std::printf("journal replay: %zu campaigns recovered\n",
                server.recovered_campaigns());
  }
  std::printf("POST /campaigns to submit; SIGTERM drains and exits 0\n");
  std::fflush(stdout);

  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGINT, serve_signal_handler);
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("drain: admission stopped, checkpointing in-flight campaigns\n");
  std::fflush(stdout);
  server.drain();
  std::printf("campaign server drained cleanly\n");
  return util::exit_code::kSuccess;
}

int help_config() {
  std::puts(
      "daily config keys (key = value, '#' comments, defaults = paper):\n"
      "  fleet:     servers, core_mhz, core_mix (e.g. 4,6,8), ram_per_core_mb\n"
      "  workload:  vms, reference_mhz, sample_period_s, diurnal_amplitude,\n"
      "             diurnal_peak_hour, ar1_rho, dev_base, dev_slope\n"
      "  run:       horizon_hours, warmup_hours, seed\n"
      "  algorithm: ta, p, tl, th, alpha, beta, high_dest_factor,\n"
      "             monitor_period_s, migration_cooldown_s,\n"
      "             migration_latency_s, boot_time_s, grace_period_s,\n"
      "             hibernate_delay_s, require_fit, enable_migrations,\n"
      "             invite_group_size, fast_sampler\n"
      "  memory:    streaming_traces (O(VMs) trace cursors, bit-identical\n"
      "             stream; DESIGN.md Sec. 14)\n"
      "  faults:    under a [faults] section (or faults.-prefixed):\n"
      "             server_mtbf_s, server_mttr_s, migration_abort_prob,\n"
      "             boot_failure_prob, max_boot_retries,\n"
      "             invitation_loss_prob, reply_loss_prob, max_invite_rounds,\n"
      "             redeploy_delay_s, redeploy_backoff_s,\n"
      "             redeploy_backoff_max_s, redeploy_max_attempts,\n"
      "             schedule (e.g. crash 10-20 3600 600, repair 5 7200)\n"
      "  robustness: [checkpoint] out, every_s; [audit] every_s,\n"
      "             action (log|abort|heal), tolerance, strict;\n"
      "             [watchdog] stall_s — all disabled by default\n"
      "\n"
      "consolidation config keys:\n"
      "  servers, cores_per_server, core_mhz, initial_vms, horizon_hours,\n"
      "  mean_lifetime_hours, metrics_period_s, seed + algorithm/workload "
      "keys");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    Options options(argc, argv, 2);
    if (command == "run-daily") return run_daily(options);
    if (command == "run-consolidation") return run_consolidation(options);
    if (command == "serve") return serve(options);
    if (command == "gen-traces") return gen_traces(options);
    if (command == "functions") return functions(options);
    if (command == "help-config") return help_config();
    if (command == "help" || command == "--help" || command == "-h") {
      usage();
      return 0;
    }
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    return usage();
  } catch (const std::invalid_argument& error) {
    // Bad flags, bad config keys, incompatible option combinations: the
    // user asked for something the tool cannot parse or honor.
    std::fprintf(stderr, "error: %s\n", error.what());
    return util::exit_code::kConfigError;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return util::exit_code::kRuntimeFailure;
  }
}
