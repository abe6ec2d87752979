#include "ecocloud/scenario/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/util/phase_profiler.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::scenario {

namespace {

/// Digest helpers: every field that shapes the deterministic run is
/// printed exactly (%.17g round-trips doubles) so a snapshot refuses to
/// restore into even a slightly different experiment.
void digest_f(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%.17g", key, value);
  out += buf;
}

void digest_u(std::string& out, const char* key, std::uint64_t value) {
  out += ' ';
  out += key;
  out += '=';
  out += std::to_string(value);
}

void digest_params(std::string& out, const core::EcoCloudParams& p) {
  digest_f(out, "ta", p.ta);
  digest_f(out, "p", p.p);
  digest_f(out, "tl", p.tl);
  digest_f(out, "th", p.th);
  digest_f(out, "alpha", p.alpha);
  digest_f(out, "beta", p.beta);
  digest_f(out, "hdf", p.high_dest_factor);
  digest_f(out, "monitor", p.monitor_period_s);
  digest_f(out, "cooldown", p.migration_cooldown_s);
  digest_f(out, "mig_latency", p.migration_latency_s);
  digest_f(out, "boot", p.boot_time_s);
  digest_f(out, "grace", p.grace_period_s);
  digest_f(out, "hib_delay", p.hibernate_delay_s);
  digest_u(out, "fit", p.require_fit ? 1 : 0);
  digest_u(out, "migrations", p.enable_migrations ? 1 : 0);
  digest_u(out, "invite_group", p.invite_group_size);
  digest_u(out, "fast_sampler", p.fast_sampler ? 1 : 0);
}

void digest_workload(std::string& out, const trace::WorkloadConfig& w) {
  digest_f(out, "ref_mhz", w.reference_mhz);
  digest_f(out, "sample", w.sample_period_s);
  digest_f(out, "diurnal_amp", w.diurnal.amplitude());
  digest_f(out, "diurnal_peak", w.diurnal.peak_hour());
  digest_f(out, "rho", w.ar1_rho);
  digest_f(out, "dev_base", w.dev_base);
  digest_f(out, "dev_slope", w.dev_slope);
  digest_f(out, "ram_min", w.ram_min_mb);
  digest_f(out, "ram_max", w.ram_max_mb);
}

void digest_faults(std::string& out, const faults::FaultParams& f) {
  digest_f(out, "mtbf", f.server_mtbf_s);
  digest_f(out, "mttr", f.server_mttr_s);
  digest_f(out, "mig_abort", f.migration_abort_prob);
  digest_f(out, "boot_fail", f.boot_failure_prob);
  digest_u(out, "boot_retries", f.max_boot_retries);
  digest_f(out, "inv_loss", f.invitation_loss_prob);
  digest_f(out, "reply_loss", f.reply_loss_prob);
  digest_u(out, "invite_rounds", f.max_invite_rounds);
  digest_f(out, "redeploy_delay", f.redeploy_delay_s);
  digest_f(out, "backoff", f.redeploy_backoff_s);
  digest_f(out, "backoff_max", f.redeploy_backoff_max_s);
  digest_u(out, "redeploy_attempts", f.redeploy_max_attempts);
  digest_u(out, "scripted", f.schedule.size());
  for (const faults::ScriptedFault& fault : f.schedule) {
    digest_u(out, "kind", fault.kind == faults::ScriptedFault::Kind::kCrash ? 0 : 1);
    digest_f(out, "at", fault.time);
    digest_u(out, "first", fault.first);
    digest_u(out, "last", fault.last);
    digest_f(out, "repair_after", fault.repair_after_s);
  }
}

/// Seed of fleet slice \p index: XOR with the index spread over the full
/// 64 bits (multiples of the golden-ratio increment, as in splitmix64).
/// Slice 0's term is zero, so its streams are exactly the unsliced run's.
std::uint64_t slice_seed(std::uint64_t seed, std::size_t index) {
  return seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(index));
}

/// Restrict a global fault schedule to the servers of \p slice and
/// rewrite the ranges into local ids. Entries whose [first, last] range
/// contains no server of the slice are dropped, so every scripted crash
/// fires on exactly one slice and the whole fleet's schedule is unchanged.
faults::FaultParams localize_faults(const faults::FaultParams& global,
                                    FleetSlice slice) {
  faults::FaultParams local = global;
  local.schedule.clear();
  const auto k = static_cast<dc::ServerId>(slice.count);
  const auto self = static_cast<dc::ServerId>(slice.index);
  for (faults::ScriptedFault fault : global.schedule) {
    // Smallest/largest global server in [first, last] congruent to the
    // slice index modulo the count; empty intersections are skipped.
    const dc::ServerId g0 =
        fault.first + ((self + k - fault.first % k) % k);
    if (g0 > fault.last) continue;
    const dc::ServerId g1 = fault.last - ((fault.last % k + k - self) % k);
    fault.first = g0 / k;
    fault.last = g1 / k;
    local.schedule.push_back(fault);
  }
  return local;
}

/// The state sections and event owners both scenarios register first, in
/// snapshot order: datacenter, controller, trace driver.
void register_engine(ckpt::CheckpointManager& manager, dc::DataCenter& datacenter,
                     core::EcoCloudController& eco, core::TraceDriver& trace_driver) {
  manager.add_section(
      "datacenter", [&datacenter](util::BinWriter& w) { datacenter.save_state(w); },
      [&datacenter](util::BinReader& r) { datacenter.load_state(r); });
  manager.add_section(
      "controller", [&eco](util::BinWriter& w) { eco.save_state(w); },
      [&eco](util::BinReader& r) { eco.load_state(r); });
  manager.add_section(
      "trace_driver", [&trace_driver](util::BinWriter& w) { trace_driver.save_state(w); },
      [&trace_driver](util::BinReader& r) { trace_driver.load_state(r); });
  manager.add_owner(
      sim::tag_owner::kController,
      [&eco](const sim::EventTag& tag) { return eco.rebuild_event(tag); },
      [&eco](const sim::EventTag& tag, sim::EventHandle h) { eco.bind_event(tag, h); });
  manager.add_owner(sim::tag_owner::kTraceDriver,
                    [&trace_driver](const sim::EventTag& tag) {
                      return trace_driver.rebuild_event(tag);
                    });
}

}  // namespace

void build_fleet(dc::DataCenter& datacenter, const FleetConfig& fleet,
                 FleetSlice slice) {
  util::require(!fleet.core_mix.empty(), "build_fleet: empty core mix");
  util::require(slice.count >= 1 && slice.index < slice.count,
                "build_fleet: slice index outside the slice count");
  for (std::size_t i = slice.index; i < fleet.num_servers; i += slice.count) {
    const unsigned cores = fleet.core_mix[i % fleet.core_mix.size()];
    datacenter.add_server(cores, fleet.core_mhz,
                          fleet.ram_per_core_mb * static_cast<double>(cores));
  }
}

std::vector<trace::TraceSource> generate_daily_traces(const DailyConfig& config,
                                                      std::size_t num_slices) {
  util::Rng rng(config.seed);
  const auto num_steps =
      static_cast<std::size_t>(config.horizon_s /
                               config.workload.sample_period_s) +
      2;
  const trace::WorkloadModel model(config.workload);
  std::vector<trace::TraceSource> sources;
  sources.reserve(num_slices);
  // Both generators consume the seed stream identically, so the two modes
  // produce the same event stream bit for bit (engine_regression_test pins
  // both against the same hashes).
  if (config.streaming_traces) {
    for (trace::StreamingTraces& bank :
         trace::StreamingTraces::generate_partitioned(
             model, config.num_vms, num_steps, rng, num_slices)) {
      sources.emplace_back(std::move(bank));
    }
  } else {
    const auto shared = std::make_shared<const trace::TraceSet>(
        trace::TraceSet::generate(model, config.num_vms, num_steps, rng));
    for (std::size_t k = 0; k < num_slices; ++k) sources.emplace_back(shared);
  }
  return sources;
}

DailyScenario::DailyScenario(DailyConfig config, Algorithm algorithm,
                             baseline::CentralizedParams centralized_params)
    : config_(std::move(config)), algorithm_(algorithm) {
  config_.params.validate();  // before the (possibly long) trace generation
  init({}, std::move(generate_daily_traces(config_, 1).front()),
       centralized_params);
}

DailyScenario::DailyScenario(DailyConfig config, trace::TraceSet traces,
                             Algorithm algorithm,
                             baseline::CentralizedParams centralized_params)
    : config_(std::move(config)), algorithm_(algorithm) {
  // Externally supplied traces are materialized by definition.
  config_.streaming_traces = false;
  config_.num_vms = traces.num_vms();
  init({}, trace::TraceSource(std::make_shared<const trace::TraceSet>(std::move(traces))),
       centralized_params);
}

DailyScenario::DailyScenario(DailyConfig config, FleetSlice slice,
                             trace::TraceSource traces)
    : config_(std::move(config)), algorithm_(Algorithm::kEcoCloud) {
  init(slice, std::move(traces), {});
}

void DailyScenario::init(FleetSlice slice, trace::TraceSource traces,
                         const baseline::CentralizedParams& centralized_params) {
  config_.params.validate();
  traces_ = std::make_unique<trace::TraceSource>(std::move(traces));

  dc_ = std::make_unique<dc::DataCenter>();
  build_fleet(*dc_, config_.fleet, slice);
  trace_driver_ = std::make_unique<core::TraceDriver>(sim_, *dc_, *traces_);

  util::Rng rng(slice_seed(config_.seed, slice.index));
  if (algorithm_ == Algorithm::kEcoCloud) {
    eco_ = std::make_unique<core::EcoCloudController>(sim_, *dc_, config_.params,
                                                      rng.split(1));
    if (config_.topology) {
      topology_ =
          std::make_unique<net::Topology>(dc_->num_servers(), *config_.topology);
      eco_->set_topology(topology_.get());
    }
  } else if (algorithm_ == Algorithm::kCentralized) {
    central_ = std::make_unique<baseline::CentralizedController>(
        sim_, *dc_, centralized_params, rng.split(1));
  }
  // kStatic needs no controller at all.

  collector_ = std::make_unique<metrics::MetricsCollector>(sim_, *dc_);
  if (eco_) collector_->attach(*eco_);

  if (eco_ && config_.faults.enabled()) {
    // Stream 7 keeps fault draws out of the workload (seed) and
    // controller (split 1) streams: the same seed yields the same fault
    // sequence regardless of the other knobs. Every slice gets an injector
    // even when its share of the schedule is empty, so the stochastic
    // processes and the snapshot layout are uniform across slices.
    injector_ = std::make_unique<faults::FaultInjector>(
        sim_, *dc_, *eco_, localize_faults(config_.faults, slice),
        rng.split(7));
  }
}

void DailyScenario::begin_deploy() {
  if (algorithm_ == Algorithm::kStatic) {
    // No consolidation: the whole fleet runs and VMs are spread
    // round-robin, as in a data center without any placement policy.
    for (std::size_t s = 0; s < dc_->num_servers(); ++s) {
      dc_->start_booting(0.0, static_cast<dc::ServerId>(s));
      dc_->finish_booting(0.0, static_cast<dc::ServerId>(s));
    }
  }
  if (injector_) injector_->start();
}

dc::VmId DailyScenario::create_vm(std::size_t trace_index) {
  const dc::VmId vm = dc_->create_vm(0.0, traces_->ram_mb(trace_index));
  trace_driver_->map_vm(trace_index, vm);  // sets the live trace demand
  return vm;
}

bool DailyScenario::deploy_vm(dc::VmId vm) {
  if (eco_) return eco_->deploy_vm(vm);
  if (central_) {
    central_->deploy_vm(vm);
  } else {
    dc_->place_vm(0.0, vm, static_cast<dc::ServerId>(vm % dc_->num_servers()));
  }
  return true;
}

void DailyScenario::start_services() {
  trace_driver_->start();
  if (eco_) eco_->start();
  if (central_) central_->start();
  collector_->start();
}

void DailyScenario::start() {
  begin_deploy();
  // Create all VMs with their t=0 demand and deploy them; the controllers
  // wake servers and queue VMs as boots complete. At planet scale this
  // wave is tens of seconds of wall time, so it carries its own phase —
  // one span, always timed, never mistaken for steady-state event cost.
  {
    util::ScopedPhase profile(util::Phase::kVmLifecycle);
    for (std::size_t i = 0; i < config_.num_vms; ++i) deploy_vm(create_vm(i));
  }
  start_services();
}

bool DailyScenario::run_slice(sim::SimTime until) {
  const sim::SimTime target = std::min(until, config_.horizon_s);
  if (config_.warmup_s > 0.0 && !warmup_done_ &&
      target >= config_.warmup_s) {
    sim_.run_until(config_.warmup_s);
    dc_->reset_accounting(sim_.now());
    collector_->rebase();
    if (eco_) eco_->reset_counters();
    warmup_done_ = true;
  }
  sim_.run_until(target);
  return target >= config_.horizon_s;
}

void DailyScenario::finish() {
  dc_->advance_to(config_.horizon_s);
  if (injector_) injector_->finalize(config_.horizon_s);
}

void DailyScenario::run() {
  start();
  run_slice(config_.horizon_s);
  finish();
}

std::string daily_config_digest(const DailyConfig& config, const char* algo) {
  std::string digest = "daily algo=";
  digest += algo;
  digest_u(digest, "seed", config.seed);
  digest_u(digest, "servers", config.fleet.num_servers);
  digest_f(digest, "core_mhz", config.fleet.core_mhz);
  digest += " mix=";
  for (unsigned cores : config.fleet.core_mix) {
    digest += std::to_string(cores);
    digest += ',';
  }
  digest_f(digest, "ram_per_core", config.fleet.ram_per_core_mb);
  digest_u(digest, "vms", config.num_vms);
  digest_f(digest, "horizon", config.horizon_s);
  digest_f(digest, "warmup", config.warmup_s);
  digest_params(digest, config.params);
  digest_workload(digest, config.workload);
  digest_faults(digest, config.faults);
  if (config.topology) {
    digest_u(digest, "racks", config.topology->num_racks);
    digest_f(digest, "intra_gbps", config.topology->intra_rack_gbps);
    digest_f(digest, "inter_gbps", config.topology->inter_rack_gbps);
  } else {
    digest += " topo=none";
  }
  return digest;
}

std::string DailyScenario::config_digest() const {
  return daily_config_digest(config_,
                             algorithm_ == Algorithm::kEcoCloud       ? "eco"
                             : algorithm_ == Algorithm::kCentralized ? "centralized"
                                                                     : "static");
}

void DailyScenario::register_checkpoint(ckpt::CheckpointManager& manager) {
  util::require(eco_ != nullptr,
                "checkpointing supports the ecoCloud algorithm only (the "
                "baseline controllers schedule untagged events)");
  manager.set_config_digest(config_digest());

  manager.add_section(
      "scenario", [this](util::BinWriter& w) { w.boolean(warmup_done_); },
      [this](util::BinReader& r) { warmup_done_ = r.boolean(); });
  register_engine(manager, *dc_, *eco_, *trace_driver_);
  manager.add_section(
      "collector", [this](util::BinWriter& w) { collector_->save_state(w); },
      [this](util::BinReader& r) { collector_->load_state(r); });
  if (injector_) {
    manager.add_section(
        "faults", [this](util::BinWriter& w) { injector_->save_state(w); },
        [this](util::BinReader& r) { injector_->load_state(r); });
  }

  manager.add_owner(sim::tag_owner::kCollector, [this](const sim::EventTag& tag) {
    return collector_->rebuild_event(tag);
  });
  if (injector_) {
    manager.add_owner(sim::tag_owner::kFaults, [this](const sim::EventTag& tag) {
      return injector_->rebuild_event(tag);
    });
    manager.add_owner(
        sim::tag_owner::kRedeploy,
        [this](const sim::EventTag& tag) {
          return injector_->redeploy().rebuild_event(tag);
        },
        [this](const sim::EventTag& tag, sim::EventHandle handle) {
          injector_->redeploy().bind_event(tag, handle);
        });
  }
}

ConsolidationScenario::ConsolidationScenario(ConsolidationConfig config)
    : config_(std::move(config)) {
  // The Sec. IV experiment studies the assignment procedure in isolation.
  config_.params.enable_migrations = false;
  config_.params.validate();

  dc_ = std::make_unique<dc::DataCenter>();
  for (std::size_t i = 0; i < config_.num_servers; ++i) {
    dc_->add_server(config_.cores_per_server, config_.core_mhz);
  }

  util::Rng rng(config_.seed);
  const auto num_steps =
      static_cast<std::size_t>(config_.horizon_s / config_.workload.sample_period_s) + 2;
  trace::WorkloadModel model(config_.workload);
  traces_ = std::make_unique<trace::TraceSource>(std::make_shared<const trace::TraceSet>(
      trace::TraceSet::generate(model, 6000, num_steps, rng)));

  trace_driver_ = std::make_unique<core::TraceDriver>(sim_, *dc_, *traces_);
  eco_ = std::make_unique<core::EcoCloudController>(sim_, *dc_, config_.params,
                                                    rng.split(1));
  rates_ = std::make_unique<trace::RateEstimator>(1800.0);

  const double nu_rate = nu();
  const std::size_t target = config_.initial_vms;
  const trace::DiurnalPattern diurnal = config_.workload.diurnal;
  auto lambda_fn = [target, nu_rate, diurnal](sim::SimTime t) {
    return static_cast<double>(target) * nu_rate * diurnal.value(t);
  };
  const double lambda_max =
      static_cast<double>(target) * nu_rate * diurnal.max() * 1.001;

  open_ = std::make_unique<core::OpenSystemDriver>(sim_, *dc_, *eco_, *trace_driver_,
                                                   rng.split(2), lambda_fn,
                                                   lambda_max, nu_rate);
  open_->set_rate_estimator(rates_.get());

  metrics::CollectorConfig mc;
  mc.sample_period_s = config_.sample_period_s;
  collector_ = std::make_unique<metrics::MetricsCollector>(sim_, *dc_, mc);
  collector_->attach(*eco_);
}

double ConsolidationScenario::lambda(sim::SimTime t) const {
  return static_cast<double>(config_.initial_vms) * nu() *
         config_.workload.diurnal.value(t);
}

double ConsolidationScenario::mean_vm_share() const {
  const double mean_mhz = trace::WorkloadModel::expected_average_percent() / 100.0 *
                          config_.workload.reference_mhz;
  const double capacity =
      static_cast<double>(config_.cores_per_server) * config_.core_mhz;
  return mean_mhz / capacity;
}

void ConsolidationScenario::start() {
  // Non-consolidated start: every server active, VMs spread uniformly.
  for (std::size_t s = 0; s < config_.num_servers; ++s) {
    eco_->force_activate(static_cast<dc::ServerId>(s));
  }
  open_->seed_initial_population(config_.initial_vms);
  dc_->reset_accounting(sim_.now());

  trace_driver_->start();
  eco_->start();  // no-op with migrations disabled, kept for symmetry
  open_->start();
  collector_->sample_now();
  collector_->start();
}

bool ConsolidationScenario::run_slice(sim::SimTime until) {
  const sim::SimTime target = std::min(until, config_.horizon_s);
  sim_.run_until(target);
  return target >= config_.horizon_s;
}

void ConsolidationScenario::finish() { dc_->advance_to(config_.horizon_s); }

void ConsolidationScenario::run() {
  start();
  run_slice(config_.horizon_s);
  finish();
}

std::string ConsolidationScenario::config_digest() const {
  std::string digest = "consolidation";
  digest_u(digest, "seed", config_.seed);
  digest_u(digest, "servers", config_.num_servers);
  digest_u(digest, "cores", config_.cores_per_server);
  digest_f(digest, "core_mhz", config_.core_mhz);
  digest_u(digest, "initial_vms", config_.initial_vms);
  digest_f(digest, "horizon", config_.horizon_s);
  digest_f(digest, "lifetime", config_.mean_lifetime_s);
  digest_f(digest, "sample", config_.sample_period_s);
  digest_params(digest, config_.params);
  digest_workload(digest, config_.workload);
  return digest;
}

void ConsolidationScenario::register_checkpoint(ckpt::CheckpointManager& manager) {
  manager.set_config_digest(config_digest());

  register_engine(manager, *dc_, *eco_, *trace_driver_);
  manager.add_section(
      "open_system", [this](util::BinWriter& w) { open_->save_state(w); },
      [this](util::BinReader& r) { open_->load_state(r); });
  manager.add_section(
      "rates", [this](util::BinWriter& w) { rates_->save_state(w); },
      [this](util::BinReader& r) { rates_->load_state(r); });
  manager.add_section(
      "collector", [this](util::BinWriter& w) { collector_->save_state(w); },
      [this](util::BinReader& r) { collector_->load_state(r); });

  manager.add_owner(sim::tag_owner::kOpenSystem, [this](const sim::EventTag& tag) {
    return open_->rebuild_event(tag);
  });
  manager.add_owner(sim::tag_owner::kCollector, [this](const sim::EventTag& tag) {
    return collector_->rebuild_event(tag);
  });
}

}  // namespace ecocloud::scenario
