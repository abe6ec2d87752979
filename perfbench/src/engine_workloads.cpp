// The two engine workloads: scaleup_single (one DailyScenario driven in
// one-hour slices) and planet_sharded (par::ShardedDailyRun, 8 shards on 4
// threads). Both time every public call from outside and read the
// engine's own counters; nothing inside the library is instrumented.

#include <cmath>
#include <cstdio>
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "drivers.hpp"
#include "ecocloud/par/sharded_runner.hpp"
#include "ecocloud/scenario/scenario.hpp"
#include "ecocloud/trace/streaming_traces.hpp"
#include "ecocloud/trace/workload_model.hpp"
#include "ecocloud/util/rng.hpp"
#include "pinned.hpp"

namespace perfbench {

using namespace ecocloud;

namespace {

/// Whole engine runs per timed process, each after its own construction.
/// setup_s is the median over them and run_s the fastest: other tenants of
/// a shared host only ever add time to a run. One run of either engine
/// workload takes 6-15 s on the 4-core reference host, so a timed process
/// measures for about 20-45 s.
constexpr int kRepeats = 3;

double num(std::uint64_t v) { return static_cast<double>(v); }

/// Counters an engine run leaves behind, summed over shards.
struct EngineCounters {
  std::uint64_t events = 0;
  std::uint64_t migrations = 0;
  std::uint64_t activations = 0;
  std::uint64_t hibernations = 0;
  double energy_kwh = 0.0;
  sim::EngineStats sim;
  core::MessageLog messages;
  core::BernoulliTally fa, fl, fh;

  void add_engine(const sim::EngineStats& s) {
    sim.fired_from_heap += s.fired_from_heap;
    sim.fired_from_ring += s.fired_from_ring;
    sim.cancels += s.cancels;
    sim.dropped_cancelled += s.dropped_cancelled;
    sim.slab_high_water = std::max(sim.slab_high_water, s.slab_high_water);
  }
  void add_controller(core::EcoCloudController& c) {
    const core::MessageLog& m = c.messages();
    messages.invitation_rounds += m.invitation_rounds;
    messages.invitations_sent += m.invitations_sent;
    messages.volunteer_replies += m.volunteer_replies;
    const auto add = [](core::BernoulliTally& into, const core::BernoulliTally& t) {
      into.accepts += t.accepts;
      into.rejects += t.rejects;
    };
    add(fa, c.assignment().fa_tally());
    add(fl, c.migration().fl_tally());
    add(fh, c.migration().fh_tally());
  }
};

double ratio(const core::BernoulliTally& t) {
  return t.trials() > 0 ? num(t.accepts) / num(t.trials())
                        : 0.0;
}

void add_counter_layers(const EngineCounters& c, Result& res) {
  const double fired = num(c.sim.fired_from_heap + c.sim.fired_from_ring);
  res.layer("sim.events", num(c.events), "count");
  res.layer("sim.ring_fire_ratio",
            fired > 0 ? num(c.sim.fired_from_ring) / fired : 0.0, "ratio");
  res.layer("sim.cancels", num(c.sim.cancels), "count");
  res.layer("sim.dropped_cancelled", num(c.sim.dropped_cancelled), "count");
  res.layer("sim.slab_high_water", num(c.sim.slab_high_water), "count");
  res.layer("dc.migrations", num(c.migrations), "count");
  res.layer("dc.activations", num(c.activations), "count");
  res.layer("dc.hibernations", num(c.hibernations), "count");
  res.layer("core.invitation_rounds", num(c.messages.invitation_rounds), "count");
  res.layer("core.invitations_sent", num(c.messages.invitations_sent), "count");
  res.layer("core.volunteer_replies", num(c.messages.volunteer_replies), "count");
  res.layer("core.accept_ratio.fa", ratio(c.fa), "ratio");
  res.layer("core.accept_ratio.fl", ratio(c.fl), "ratio");
  res.layer("core.accept_ratio.fh", ratio(c.fh), "ratio");
}

/// Check the run's outputs: exact against the pin when the seed has one,
/// otherwise within a band around the default-seed pin (other seeds draw
/// other traces, so only the order of magnitude is fixed).
template <std::size_t N>
void check_outputs(const char* workload, const EnginePin (&pins)[N], std::uint64_t seed,
                   const EngineCounters& c, Result& res) {
  const std::optional<EnginePin> exact = find_pin(pins, seed);
  char what[256];
  if (exact) {
    std::snprintf(what, sizeof what, "%s seed %llu: events %llu, pinned %llu", workload,
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(c.events),
                  static_cast<unsigned long long>(exact->events));
    res.check(c.events == exact->events, what);
    std::snprintf(what, sizeof what, "%s seed %llu: migrations %llu, pinned %llu",
                  workload, static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(c.migrations),
                  static_cast<unsigned long long>(exact->migrations));
    res.check(c.migrations == exact->migrations, what);
    std::snprintf(what, sizeof what, "%s seed %llu: energy %.3f kWh, pinned %.3f",
                  workload,
                  static_cast<unsigned long long>(seed), c.energy_kwh, exact->energy_kwh);
    res.check(std::fabs(c.energy_kwh - exact->energy_kwh) < 1e-3, what);
    return;
  }
  const EnginePin& ref = pins[0];
  const auto within = [](double v, double ref_v, double band) {
    return v > 0.0 && std::fabs(v - ref_v) <= band * ref_v;
  };
  std::snprintf(what, sizeof what, "%s seed %llu: events %llu outside 10%% of %llu",
                workload, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(c.events),
                static_cast<unsigned long long>(ref.events));
  res.check(within(num(c.events), num(ref.events), 0.10),
            what);
  std::snprintf(what, sizeof what, "%s seed %llu: migrations %llu outside 30%% of %llu",
                workload, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(c.migrations),
                static_cast<unsigned long long>(ref.migrations));
  res.check(within(num(c.migrations), num(ref.migrations),
                   0.30),
            what);
  std::snprintf(what, sizeof what, "%s seed %llu: energy %.3f kWh outside 10%% of %.3f",
                workload, static_cast<unsigned long long>(seed), c.energy_kwh,
                ref.energy_kwh);
  res.check(within(c.energy_kwh, ref.energy_kwh, 0.10), what);
}

void check_invariants(const dc::DataCenter& datacenter, const std::string& where,
                      Result& res) {
  const std::vector<std::string> problems = datacenter.audit_invariants(1e-6);
  res.check(problems.empty(),
            where + ": " + (problems.empty() ? std::string() : problems.front()));
}

/// Fastest time of every step over the repeats of a run. Every repeat of a
/// seed executes the identical event sequence, so step k is the same work
/// in each. The sum of these minima is printed beside the whole-run walls
/// as a diagnostic: the difference is time that varied from run to run,
/// from host interference or from uneven epochs.
double fastest_steps_sum_s(const std::vector<std::vector<double>>& reps) {
  std::vector<double> fastest = reps.front();
  for (const auto& rep : reps) {
    for (std::size_t k = 0; k < fastest.size() && k < rep.size(); ++k) {
      fastest[k] = std::min(fastest[k], rep[k]);
    }
  }
  double sum_ms = 0.0;
  for (const double ms : fastest) sum_ms += ms;
  return sum_ms * 1e-3;
}

/// End-to-end metrics shared by both engine workloads: the median set-up
/// wall and the fastest whole-run wall.
void add_engine_e2e(Result& res, const std::vector<double>& setup_s,
                    const std::vector<double>& run_s,
                    const std::vector<std::vector<double>>& steps, std::uint64_t events,
                    double rss_mb) {
  const double run = *std::min_element(run_s.begin(), run_s.end());
  std::printf("# run_s fastest %.3f s of %zu whole runs; sum of per-step fastest times "
              "%.3f s\n",
              run, run_s.size(), fastest_steps_sum_s(steps));
  res.e2e("setup_s", median(setup_s), "s");
  res.e2e("run_s", run, "s");
  res.e2e("events_per_s", num(events) / run, "1/s");
  res.e2e("peak_rss_mb", rss_mb, "MB");
}

/// Reconcile rows shared by both engine workloads: unit-cost drivers times
/// their counts next to the profiler's phase totals, then the phases no
/// driver covers. Profiler phases nest (a monitor sweep contains classify
/// batches and migration invites), so the monitor row is its self time.
/// \p advance_s is the unit cost of one trace step (< 0: no driver) and
/// \p scale spreads per-shard work over the worker threads.
std::vector<ReconcileRow> engine_rows(const util::PhaseProfiler& p,
                                      const EngineCounters& c, double calendar_ns,
                                      double classify_ns, double invite_us_per_round,
                                      double advance_s, double servers,
                                      double trace_steps, double scale) {
  const auto ph = [&](util::Phase phase) { return phase_seconds(p, phase) * scale; };
  const double sweep_self =
      std::max(0.0, ph(util::Phase::kMonitorSweep) - ph(util::Phase::kMonitorBatch) -
                        ph(util::Phase::kInviteSampling));
  return {
      {"sim calendar (per event)", calendar_ns * 1e-9 * scale, num(c.events),
       ph(util::Phase::kCalendarOps)},
      {"dc classify (server x step)", classify_ns * 1e-9 * scale, servers * trace_steps,
       ph(util::Phase::kMonitorBatch)},
      {"core invite (per round)", invite_us_per_round * 1e-6 * scale,
       num(c.messages.invitation_rounds), ph(util::Phase::kInviteSampling)},
      {advance_s < 0.0 ? "trace advance (profiler)" : "trace advance (per bank step)",
       advance_s < 0.0 ? -1.0 : advance_s * scale, trace_steps,
       ph(util::Phase::kTraceAdvance)},
      {"monitor trials, self (prof.)", -1.0, num(c.sim.fired_from_ring),
       sweep_self},
      {"vm lifecycle (profiler)", -1.0, 1.0, ph(util::Phase::kVmLifecycle)},
  };
}

// ---------------------------------------------------------------------------
// scaleup_single

scenario::DailyConfig scaleup_config(std::uint64_t seed) {
  scenario::DailyConfig config;
  config.fleet.num_servers = 4000;
  config.num_vms = 60000;
  config.warmup_s = 6.0 * sim::kHour;
  config.horizon_s = config.warmup_s + 48.0 * sim::kHour;
  config.seed = seed;
  return config;  // compat broadcast sampler, materialized traces
}

struct SingleRun {
  double start_s = 0.0;
  double run_s = 0.0;
  std::vector<double> step_ms;  ///< start(), every run_slice(), finish()
  std::uint64_t allocations = 0;
  EngineCounters counters;
};

/// start() + one run_slice() per simulated hour + finish().
SingleRun drive_single(scenario::DailyScenario& daily) {
  SingleRun out;
  const std::uint64_t alloc0 = allocation_count();
  const auto t0 = Clock::now();
  {
    ScopedSpan span("scenario.start");
    daily.start();
  }
  out.start_s = seconds_since(t0);
  out.step_ms.push_back(out.start_s * 1e3);
  for (int hour = 1;; ++hour) {
    ScopedSpan span("scenario.run_slice");
    const auto ts = Clock::now();
    const bool done = daily.run_slice(hour * sim::kHour);
    out.step_ms.push_back(seconds_since(ts) * 1e3);
    if (done) break;
  }
  const auto tf = Clock::now();
  {
    ScopedSpan span("scenario.finish");
    daily.finish();
  }
  out.run_s = seconds_since(t0);
  out.step_ms.push_back(seconds_since(tf) * 1e3);
  out.allocations = allocation_count() - alloc0;

  EngineCounters& c = out.counters;
  c.events = daily.simulator().executed_events();
  c.migrations = daily.datacenter().total_migrations();
  c.activations = daily.datacenter().total_activations();
  c.hibernations = daily.datacenter().total_hibernations();
  c.energy_kwh = daily.datacenter().energy_joules() / 3.6e6;
  c.add_engine(daily.simulator().stats());
  c.add_controller(*daily.ecocloud());
  return out;
}

/// Construct the scenario, timing it and recording the sample.
void construct(std::optional<scenario::DailyScenario>& daily,
               const scenario::DailyConfig& config, std::vector<double>& setup_s) {
  daily.reset();
  ScopedSpan span("scenario.ctor");
  const auto t0 = Clock::now();
  daily.emplace(config);
  setup_s.push_back(seconds_since(t0));
}

}  // namespace

Result run_scaleup_single(const Options& opt) {
  Result res;
  const scenario::DailyConfig config = scaleup_config(opt.seed);
  std::printf("# scaleup_single: %zu servers, %zu VMs, %.0f h (+%.0f h warm-up), "
              "seed %llu\n",
              config.fleet.num_servers, config.num_vms,
              (config.horizon_s - config.warmup_s) / sim::kHour,
              config.warmup_s / sim::kHour, static_cast<unsigned long long>(config.seed));

  // Timed runs: no tracer, no profiler. The traced mode makes one of them
  // as the untraced reference.
  std::vector<double> setup_s, run_s;
  std::vector<std::vector<double>> steps;
  std::optional<scenario::DailyScenario> daily;
  SingleRun last;
  double rss = 0.0;
  const int reps = opt.trace ? 1 : kRepeats;
  for (int rep = 0; rep < reps; ++rep) {
    construct(daily, config, setup_s);
    last = drive_single(*daily);
    if (rep == 0) rss = peak_rss_mb();
    std::printf("# repeat %d: setup_s %.3f run_s %.3f (wall)\n", rep, setup_s.back(),
                last.run_s);
    run_s.push_back(last.run_s);
    steps.push_back(last.step_ms);
    check_outputs("scaleup_single", kScaleupPins, opt.seed,
                  last.counters, res);
    check_invariants(daily->datacenter(), "scaleup_single invariants", res);
  }
  std::printf("# scaleup_single: events %llu, migrations %llu, energy %.3f kWh\n",
              static_cast<unsigned long long>(last.counters.events),
              static_cast<unsigned long long>(last.counters.migrations),
              last.counters.energy_kwh);
  if (!opt.trace) {
    add_engine_e2e(res, setup_s, run_s, steps, last.counters.events, rss);
    return res;
  }

  // Traced run: same workload again with spans and the phase profiler.
  const double untraced_run_s = median(run_s);
  daily.reset();
  tracer().enable("scaleup_single/seed" + std::to_string(opt.seed));
  std::vector<double> traced_setup;
  construct(daily, config, traced_setup);
  util::PhaseProfiler profiler(1);
  SingleRun traced;
  {
    util::DomainScope scope(&profiler.domain(0));
    traced = drive_single(*daily);
  }
  check_outputs("scaleup_single traced", kScaleupPins, opt.seed,
                traced.counters, res);

  const EngineCounters& c = traced.counters;
  res.layer("scenario.ctor_s", median(setup_s), "s");
  res.layer("scenario.start_s", traced.start_s, "s");
  const std::vector<double> slices(traced.step_ms.begin() + 1, traced.step_ms.end() - 1);
  res.layer("scenario.slice_ms_p50", median(slices), "ms");
  res.layer("scenario.slice_ms_max", quantile(slices, 1.0), "ms");
  add_counter_layers(c, res);
  res.layer("alloc_per_event", num(last.allocations) / num(c.events), "1/event");
  res.layer("bench.traced_run_s", traced.run_s, "s");
  res.layer("bench.tracing_overhead_s", traced.run_s - untraced_run_s, "s");
  add_profile_phases(profiler, res);

  const dc::DataCenter& fleet = daily->datacenter();
  const double classify_ns = classify_ns_per_server(fleet, config.params);
  const double invite = invite_us(
      fleet, config.params, fleet.total_demand_mhz() / num(fleet.num_vms()));
  const double calendar_ns = calendar_op_ns(config.fleet.num_servers);
  res.layer("dc.classify_ns_per_server", classify_ns, "ns");
  res.layer("core.invite_us", invite, "us");
  res.layer("sim.calendar_op_ns", calendar_ns, "ns");
  daily.reset();
  const PaperScaleCosts paper = paper_scale_costs(opt.seed, opt.work_dir);
  add_paper_scale_layers(paper, res);
  measure_server_layers(opt, 5.0, res);

  print_reconcile("scaleup_single", "untraced run_s", untraced_run_s,
                  engine_rows(profiler, c, calendar_ns, classify_ns, invite, -1.0,
                              num(config.fleet.num_servers),
                              config.horizon_s / config.workload.sample_period_s, 1.0));
  return res;
}

// ---------------------------------------------------------------------------
// planet_sharded

namespace {

constexpr std::size_t kShards = 8;
constexpr std::size_t kThreads = 4;

scenario::DailyConfig planet_config(std::uint64_t seed) {
  scenario::DailyConfig config;
  config.fleet.num_servers = 100'000;
  config.num_vms = 1'500'000;
  config.warmup_s = 1.0 * sim::kHour;
  config.horizon_s = config.warmup_s + 3.0 * sim::kHour;
  config.params.fast_sampler = true;  // Floyd sampler
  config.params.invite_group_size = 64;
  config.streaming_traces = true;  // per-shard streaming trace banks
  config.seed = seed;
  return config;
}

struct ShardedRun {
  double run_s = 0.0;
  std::vector<double> step_ms;  ///< every barrier epoch, then the tail of run()
  std::uint64_t allocations = 0;
  EngineCounters counters;
  par::ParStats par;
};

ShardedRun drive_sharded(par::ShardedDailyRun& run) {
  ShardedRun out;
  auto last = Clock::now();
  run.on_barrier = [&](sim::SimTime) {
    const auto now = Clock::now();
    tracer().add("par.epoch", last, now);
    out.step_ms.push_back(std::chrono::duration<double>(now - last).count() * 1e3);
    last = now;
  };
  const std::uint64_t alloc0 = allocation_count();
  const auto t0 = Clock::now();
  last = t0;
  {
    ScopedSpan span("par.run");
    run.run();
  }
  out.run_s = seconds_since(t0);
  out.allocations = allocation_count() - alloc0;
  run.on_barrier = nullptr;
  out.step_ms.push_back(std::chrono::duration<double>(Clock::now() - last).count() * 1e3);

  out.par = run.stats();
  EngineCounters& c = out.counters;
  c.events = out.par.executed_events;
  c.migrations = out.par.migrations;
  c.activations = out.par.activations;
  c.hibernations = out.par.hibernations;
  c.energy_kwh = run.total_energy_kwh();
  for (std::size_t k = 0; k < run.num_shards(); ++k) {
    c.add_engine(run.shard(k).simulator().stats());
    c.add_controller(run.shard(k).controller());
  }
  return out;
}

void construct_sharded(std::optional<par::ShardedDailyRun>& run,
                       const scenario::DailyConfig& config, std::size_t threads,
                       std::vector<double>& setup_s) {
  run.reset();
  ScopedSpan span("par.ctor");
  const auto t0 = Clock::now();
  run.emplace(config, par::ParConfig{.shards = kShards, .threads = threads});
  setup_s.push_back(seconds_since(t0));
}

void check_sharded(const char* what, std::uint64_t seed, par::ShardedDailyRun& run,
                   const ShardedRun& r, Result& res) {
  check_outputs(what, kPlanetPins, seed, r.counters, res);
  for (std::size_t k = 0; k < run.num_shards(); ++k) {
    check_invariants(run.shard(k).datacenter(),
                     std::string(what) + " shard " + std::to_string(k) + " invariants",
                     res);
  }
}

}  // namespace

Result run_planet_sharded(const Options& opt) {
  Result res;
  const scenario::DailyConfig config = planet_config(opt.seed);
  std::printf("# planet_sharded: %zu servers, %zu VMs, %.0f h (+%.0f h warm-up), "
              "K=%zu shards on %zu threads, seed %llu\n",
              config.fleet.num_servers, config.num_vms,
              (config.horizon_s - config.warmup_s) / sim::kHour,
              config.warmup_s / sim::kHour, kShards, kThreads,
              static_cast<unsigned long long>(config.seed));

  std::vector<double> setup_s, run_s;
  std::vector<std::vector<double>> steps;
  std::optional<par::ShardedDailyRun> run;
  ShardedRun last;
  double rss = 0.0;
  const int reps = opt.trace ? 1 : kRepeats;
  for (int rep = 0; rep < reps; ++rep) {
    construct_sharded(run, config, kThreads, setup_s);
    last = drive_sharded(*run);
    if (rep == 0) rss = peak_rss_mb();
    std::printf("# repeat %d: setup_s %.3f run_s %.3f (wall)\n", rep, setup_s.back(),
                last.run_s);
    run_s.push_back(last.run_s);
    steps.push_back(last.step_ms);
    check_sharded("planet_sharded", opt.seed, *run, last, res);
  }
  std::printf("# planet_sharded: events %llu, migrations %llu, energy %.3f kWh\n",
              static_cast<unsigned long long>(last.counters.events),
              static_cast<unsigned long long>(last.counters.migrations),
              last.counters.energy_kwh);
  if (!opt.trace) {
    add_engine_e2e(res, setup_s, run_s, steps, last.counters.events, rss);
    return res;
  }

  // Traced run at 4 threads with spans and the profiler, then an untraced
  // 1-thread run of the same K=8 split for the parallel speed-up.
  const double untraced_run_s = median(run_s);
  tracer().enable("planet_sharded/seed" + std::to_string(opt.seed));
  std::vector<double> traced_setup;
  construct_sharded(run, config, kThreads, traced_setup);
  util::PhaseProfiler profiler(kShards + 1);
  run->set_profiler(&profiler);
  const ShardedRun traced = drive_sharded(*run);
  check_sharded("planet_sharded traced", opt.seed, *run, traced, res);

  const EngineCounters& c = traced.counters;
  res.layer("scenario.ctor_s", median(setup_s), "s");
  const std::vector<double> epochs(traced.step_ms.begin(), traced.step_ms.end() - 1);
  res.layer("scenario.start_s", epochs.front() * 1e-3, "s");  // holds the deploy wave
  res.layer("scenario.slice_ms_p50", median(epochs), "ms");
  res.layer("scenario.slice_ms_max", quantile(epochs, 1.0), "ms");
  add_counter_layers(c, res);
  res.layer("par.barriers", num(traced.par.barriers), "count");
  res.layer("par.stranded_wishes", num(traced.par.stranded_wishes), "count");
  res.layer("par.handoff_attempts", num(traced.par.handoff_attempts), "count");
  res.layer("par.cross_shard_migrations",
            num(traced.par.cross_shard_migrations), "count");
  res.layer("alloc_per_event", num(last.allocations) / num(c.events), "1/event");
  res.layer("bench.traced_run_s", traced.run_s, "s");
  res.layer("bench.tracing_overhead_s", traced.run_s - untraced_run_s, "s");
  add_profile_phases(profiler, res);

  const dc::DataCenter& shard0 = run->shard(0).datacenter();
  const double classify_ns = classify_ns_per_server(shard0, config.params);
  const double invite = invite_us(
      shard0, config.params, shard0.total_demand_mhz() / num(shard0.num_vms()));
  const double calendar_ns = calendar_op_ns(config.fleet.num_servers / kShards);
  res.layer("dc.classify_ns_per_server", classify_ns, "ns");
  res.layer("core.invite_us", invite, "us");
  res.layer("sim.calendar_op_ns", calendar_ns, "ns");

  tracer().disable();
  std::vector<double> serial_setup;
  construct_sharded(run, config, 1, serial_setup);
  const ShardedRun serial = drive_sharded(*run);
  check_sharded("planet_sharded 1-thread", opt.seed, *run, serial, res);
  run.reset();
  tracer().enable("planet_sharded/seed" + std::to_string(opt.seed));
  const double speedup = serial.run_s / untraced_run_s;
  res.layer("par.serial_run_s", serial.run_s, "s");
  res.layer("par.speedup", speedup, "x");
  res.layer("par.efficiency", speedup / num(kThreads), "ratio");

  // One 5-minute advance of one shard's streaming bank.
  double advance_ms = 0.0;
  {
    ScopedSpan span("driver.trace_advance");
    const trace::WorkloadModel model(config.workload);
    util::Rng rng(config.seed);
    const auto steps = static_cast<std::size_t>(
        std::ceil(config.horizon_s / config.workload.sample_period_s)) + 1;
    trace::StreamingTraces bank =
        trace::StreamingTraces::generate(model, config.num_vms / kShards, steps, rng);
    std::vector<double> ms;
    for (std::size_t k = 1; k < steps; ++k) {
      const auto t0 = Clock::now();
      bank.advance_to(k);
      ms.push_back(seconds_since(t0) * 1e3);
    }
    advance_ms = median(ms);
  }
  res.layer("trace.advance_ms", advance_ms, "ms");
  const PaperScaleCosts paper = paper_scale_costs(opt.seed, opt.work_dir);
  add_paper_scale_layers(paper, res);

  // Shard work runs on kThreads threads, so its phase totals and unit
  // costs are spread over them; hand-off and barrier waits are the
  // coordinator's serial share.
  std::vector<ReconcileRow> rows =
      engine_rows(profiler, c, calendar_ns, classify_ns, invite, advance_ms * 1e-3,
                  num(config.fleet.num_servers) / kShards,
                  config.horizon_s / config.workload.sample_period_s * num(kShards),
                  1.0 / num(kThreads));
  rows.push_back({"par barrier wait (profiler)", -1.0, num(traced.par.barriers),
                  phase_seconds(profiler, util::Phase::kBarrierWait) / kThreads});
  rows.push_back({"par hand-off (profiler)", -1.0,
                  num(traced.par.handoff_attempts),
                  phase_seconds(profiler, util::Phase::kHandoff)});
  print_reconcile("planet_sharded", "untraced run_s", untraced_run_s, rows);
  return res;
}

}  // namespace perfbench
