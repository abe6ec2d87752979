#include "ecocloud/par/sharded_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "ecocloud/ckpt/snapshot_io.hpp"
#include "ecocloud/core/migration.hpp"
#include "ecocloud/metrics/event_log_binary.hpp"
#include "ecocloud/par/event_merge.hpp"
#include "ecocloud/util/exit_codes.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::par {

namespace {

/// Section-name prefix of shard \p k in a multi-shard snapshot, "s<k>.".
/// Appended piecewise: GCC 12 at -O3 reports a false -Wrestrict overlap on
/// the one-expression concatenation.
std::string shard_prefix(std::size_t k) {
  std::string prefix = "s";
  prefix += std::to_string(k);
  prefix += '.';
  return prefix;
}

}  // namespace

ShardedDailyRun::ShardedDailyRun(scenario::DailyConfig config, ParConfig par)
    : config_(std::move(config)),
      par_(std::move(par)),
      plan_(par_.shards, config_.fleet.num_servers, config_.num_vms),
      safe_points_(config_.run) {
  config_.params.validate();
  config_.faults.validate();
  util::require(par_.sync_interval_s > 0.0,
                "ShardedDailyRun: sync interval must be > 0");
  util::require(!config_.topology || par_.shards == 1,
                "ShardedDailyRun: rack topology needs a single shard "
                "(invitations would need cross-shard rack scoping)");

  // The configured trace store is honored: every option composes with
  // cursor banks, so an option that ever needs the O(VMs x horizon) matrix
  // must fail fast here rather than switch stores behind the operator.
  std::vector<trace::TraceSource> sources =
      scenario::generate_daily_traces(config_, par_.shards);
  shards_.reserve(par_.shards);
  for (std::size_t k = 0; k < par_.shards; ++k) {
    shards_.push_back(
        std::make_unique<Shard>(config_, plan_, k, std::move(sources[k])));
  }
  // More workers than shards would only ever sit idle, and a single
  // worker is the calling thread.
  const std::size_t threads = std::min(
      par_.threads != 0 ? par_.threads
                        : std::max<std::size_t>(1, std::thread::hardware_concurrency()),
      par_.shards);
  if (threads > 1) pool_ = std::make_unique<util::ThreadPool>(threads);
}

ShardedDailyRun::~ShardedDailyRun() = default;

void ShardedDailyRun::set_record_events(bool on) {
  util::require(managers_.empty(),
                "ShardedDailyRun::set_record_events after a snapshot or start");
  record_events_ = on;
}

void ShardedDailyRun::ensure_managers() {
  if (!managers_.empty()) return;
  managers_.reserve(shards_.size());
  for (auto& shard : shards_) {
    if (record_events_) shard->record_events();
    auto manager = std::make_unique<ckpt::CheckpointManager>(shard->simulator());
    shard->register_checkpoint(*manager);
    managers_.push_back(std::move(manager));
  }
}

std::string ShardedDailyRun::config_digest() const {
  std::string digest = scenario::daily_config_digest(config_, "eco");
  digest += " shards=" + std::to_string(plan_.num_shards());
  char buf[48];
  std::snprintf(buf, sizeof(buf), " sync=%.17g", par_.sync_interval_s);
  digest += buf;
  return digest;
}

void ShardedDailyRun::set_profiler(util::PhaseProfiler* profiler) {
  if (profiler != nullptr) {
    util::require(profiler->num_domains() == shards_.size() + 1,
                  "ShardedDailyRun::set_profiler: expected K+1 domains");
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      profiler->set_domain_name(k, "shard" + std::to_string(k));
    }
    profiler->set_domain_name(shards_.size(), "coordinator");
  }
  profiler_ = profiler;
}

void ShardedDailyRun::save_snapshot(const std::string& path) {
  util::ScopedPhase profile(util::Phase::kCheckpointWrite);
  const auto t0 = std::chrono::steady_clock::now();
  ensure_managers();
  ckpt::Snapshot snapshot;
  ckpt::add_meta(snapshot, config_digest());
  {
    util::BinWriter w;
    safe_points_.save_state(w);
    snapshot.add("safe_points", w.take());
  }
  {
    // Coordinator state. Snapshots are written after barrier_handoff, so the wish queue
    // is empty by construction; what remains is the epoch clock and the cross-shard
    // accounting.
    util::BinWriter w;
    w.f64(t_);
    w.u64(stats_.barriers);
    w.u64(stats_.stranded_wishes);
    w.u64(stats_.handoff_attempts);
    w.u64(stats_.cross_shard_migrations);
    w.u64(cross_low_);
    w.u64(cross_high_);
    w.u64(coordinator_events_.size());
    for (const metrics::Event& e : coordinator_events_) {
      w.f64(e.time);
      w.u16(static_cast<std::uint16_t>(e.kind));
      w.u64(static_cast<std::uint64_t>(e.vm));
      w.u64(static_cast<std::uint64_t>(e.server));
      w.boolean(e.is_high);
    }
    snapshot.add("coordinator", w.take());
  }
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    managers_[k]->collect(snapshot, shard_prefix(k));
  }
  ckpt::write_counted(snapshot, path, t0, stats_);
  if (on_checkpoint) on_checkpoint(path);
}

void ShardedDailyRun::restore_snapshot(const std::string& path) {
  util::require(!started_, "ShardedDailyRun: restore_snapshot after start");
  util::require(!resumed_, "ShardedDailyRun: restore_snapshot called twice");
  ensure_managers();
  const ckpt::Snapshot snapshot = ckpt::read_snapshot_file(path);
  ckpt::check_meta(snapshot, path, config_digest());

  // Any decoding failure, including a section of an older layout, is a
  // snapshot error naming the file.
  ckpt::load_section(snapshot, path, "safe_points",
                     [this](util::BinReader& r) { safe_points_.load_state(r); });
  ckpt::load_section(snapshot, path, "coordinator", [this](util::BinReader& r) {
    t_ = r.f64();
    stats_.barriers = r.u64();
    stats_.stranded_wishes = r.u64();
    stats_.handoff_attempts = r.u64();
    stats_.cross_shard_migrations = r.u64();
    cross_low_ = r.u64();
    cross_high_ = r.u64();
    const std::uint64_t events = r.u64();
    if (events > r.remaining()) {
      throw std::runtime_error("event count exceeds the payload");
    }
    coordinator_events_.assign(static_cast<std::size_t>(events),
                               metrics::Event{});
    for (metrics::Event& e : coordinator_events_) {
      e.time = r.f64();
      e.kind = static_cast<metrics::EventKind>(r.u16());
      e.vm = static_cast<dc::VmId>(r.u64());
      e.server = static_cast<dc::ServerId>(r.u64());
      e.is_high = r.boolean();
    }
  });

  std::size_t expected = 3;  // meta + safe_points + coordinator
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    managers_[k]->restore_from(snapshot, shard_prefix(k), path);
    expected += managers_[k]->num_sections() + 1;  // sections + engine
  }
  if (snapshot.sections.size() != expected) {
    throw ckpt::SnapshotError(
        "snapshot: '" + path + "' has " +
        std::to_string(snapshot.sections.size()) + " sections, expected " +
        std::to_string(expected) +
        " — the resumed run must enable the same subsystems (faults) and "
        "shard count as the run that wrote the snapshot");
  }
  // Trace sources carry no snapshot state: the constructor regenerated
  // them at step 0 and the first tick fast-forwards them. Fresh cursor
  // banks lack the rows handed off before the snapshot, so every mapped
  // row is re-adopted from its owner (order-independent: adoption draws
  // nothing, and is a no-op for resident rows).
  for (auto& shard : shards_) {
    for (const auto& [vm, row] : shard->trace_driver().mapped_vms()) {
      (void)vm;
      shard->adopt_trace_row(row, *shards_[plan_.shard_of_trace(row)]);
    }
  }
  safe_points_.resume_from(path);
  resumed_ = true;
}

void ShardedDailyRun::run() {
  start();
  run_slice(config_.horizon_s);
  finish();
}

void ShardedDailyRun::start() {
  util::require(!started_, "ShardedDailyRun::start called twice");
  started_ = true;
  ensure_managers();
  const std::size_t K = shards_.size();

  // Operability wiring from config_.run. All of it is barrier-driven —
  // none of it schedules calendar events — so enabling checkpoints,
  // audits, or the watchdog never perturbs the simulated trajectory.
  const ckpt::RunControl& rc = safe_points_.control();
  if (safe_points_.auditing()) {
    // Handed-off VMs are departed (unowned) on their source shard, so strict
    // ownership only holds for K=1.
    const ckpt::AuditorConfig ac{.action = ckpt::parse_audit_action(rc.audit_action),
                                 .tolerance = rc.audit_tolerance,
                                 .strict_vm_accounting = rc.audit_strict && K == 1};
    auditors_.reserve(K);
    for (auto& shard : shards_) {
      auto auditor = std::make_unique<ckpt::RuntimeAuditor>(
          shard->simulator(), shard->datacenter(), ac);
      auditor->attach_controller(&shard->controller());
      if (shard->fault_injector() != nullptr) {
        auditor->attach_redeploy(&shard->fault_injector()->redeploy());
      }
      auditors_.push_back(std::move(auditor));
    }
    last_energy_.assign(K, 0.0);
  }
  last_epoch_wall_s_.assign(K, 0.0);
  last_barrier_lag_s_.assign(K, 0.0);

  if (!resumed_) {
    // Fault hooks must be live before the first deployment: message loss
    // applies to the initial placement wave (DailyScenario ordering).
    for (auto& shard : shards_) shard->daily().begin_deploy();

    // t=0 deployment wave, in global trace order. A VM refused by its
    // owner shard (saturation) is retried on the remaining shards in
    // order; with K=1 there is nobody to retry on and the behavior is
    // DailyScenario's.
    {
      util::ScopedPhase profile(util::Phase::kVmLifecycle);
      for (std::size_t i = 0; i < plan_.num_traces(); ++i) {
        const std::size_t owner = plan_.shard_of_trace(i);
        if (shards_[owner]->deploy(i) || K == 1) continue;
        shards_[owner]->abandon_last_deploy();
        for (std::size_t off = 1; off < K; ++off) {
          Shard& next = *shards_[(owner + off) % K];
          // A cursor bank holds only its owner's rows: the retry shard
          // adopts the row (all sources sit at step 0 here) before it can
          // price and drive the VM.
          next.adopt_trace_row(i, *shards_[owner]);
          if (next.deploy(i)) break;
          next.abandon_last_deploy();
        }
      }
    }

    for (auto& shard : shards_) shard->daily().start_services();
  }

  safe_points_.start(t_);
}

bool ShardedDailyRun::run_slice(sim::SimTime until) {
  util::require(started_ && !finished_, "ShardedDailyRun: run_slice out of order");
  const std::size_t K = shards_.size();

  // Epoch loop. Barrier times are multiples of the sync interval clipped
  // to the warmup boundary and the horizon, so each shard's run_slice
  // performs the accounting reset, and finish() the final settle, at
  // exactly the single-calendar times, however the run is sliced. On a
  // resumed run t_ starts at the snapshot's barrier.
  const sim::SimTime horizon = config_.horizon_s;
  const sim::SimTime warmup = config_.warmup_s;
  // Coordinator-side samples (hand-off, checkpoints, barrier lag) go to
  // the profiler's extra domain; without a profiler this re-installs the
  // thread's current domain, a no-op.
  util::DomainScope coordinator_scope(
      profiler_ != nullptr ? &profiler_->domain(K) : util::current_domain());
  // Each worker writes only its own shard's slot; the pool join makes the
  // writes visible to the coordinator before it reads them.
  const auto run_shard_epoch = [&](std::size_t k, sim::SimTime barrier) {
    util::DomainScope scope(profiler_ != nullptr ? &profiler_->domain(k)
                                                 : util::current_domain());
    const std::uint64_t t0 = util::monotonic_ns();
    shards_[k]->daily().run_slice(barrier);
    last_epoch_wall_s_[k] =
        static_cast<double>(util::monotonic_ns() - t0) * 1e-9;
  };
  while (t_ < horizon && t_ < until) {
    sim::SimTime next = t_ + par_.sync_interval_s;
    if (warmup > t_) next = std::min(next, warmup);
    next = std::min(next, horizon);

    if (par_.epoch_order) {
      const std::vector<std::size_t> order = par_.epoch_order(stats_.barriers, K);
      std::vector<std::uint8_t> seen(K, 0);
      const auto unseen = [&](std::size_t k) { return k < K && seen[k]++ == 0; };
      util::require(order.size() == K && std::all_of(order.begin(), order.end(), unseen),
                    "ShardedDailyRun: epoch_order must return a permutation of the "
                    "shard indices");
      for (std::size_t k : order) run_shard_epoch(k, next);
    } else if (!pool_) {
      for (std::size_t k = 0; k < K; ++k) run_shard_epoch(k, next);
    } else {
      pool_->parallel_for(0, K,
                          [&](std::size_t k) { run_shard_epoch(k, next); });
    }
    const double slowest = *std::max_element(last_epoch_wall_s_.begin(),
                                             last_epoch_wall_s_.end());
    for (std::size_t k = 0; k < K; ++k) {
      last_barrier_lag_s_[k] = slowest - last_epoch_wall_s_[k];
      if (profiler_ != nullptr) {
        // Attributed to the shard that sat idle, not to the coordinator.
        profiler_->domain(k).add(
            util::Phase::kBarrierWait,
            static_cast<std::uint64_t>(last_barrier_lag_s_[k] * 1e9));
      }
    }

    if (warmup > t_ && next >= warmup) {
      // The shards reset their energy integrals at the warmup boundary.
      last_energy_.assign(last_energy_.size(), 0.0);
    }
    {
      util::ScopedPhase profile(util::Phase::kHandoff);
      barrier_handoff(next);
    }
    ++stats_.barriers;
    t_ = next;
    at_barrier();
  }
  return t_ >= horizon;
}

void ShardedDailyRun::finish() {
  util::require(started_ && !finished_ && t_ >= config_.horizon_s,
                "ShardedDailyRun::finish before the horizon or twice");
  finished_ = true;
  safe_points_.finish();
  for (auto& shard : shards_) shard->daily().finish();

  stats_.executed_events = executed_events();
  for (auto& shard : shards_) {
    const dc::DataCenter& sdc = shard->datacenter();
    stats_.migrations += sdc.total_migrations();
    stats_.activations += sdc.total_activations();
    stats_.hibernations += sdc.total_hibernations();
    stats_.energy_joules += sdc.energy_joules();
    const core::EcoCloudController& eco = shard->controller();
    stats_.low_migrations += eco.low_migrations();
    stats_.high_migrations += eco.high_migrations();
    stats_.wake_ups += eco.wake_ups();
    stats_.assignment_failures += eco.assignment_failures();
  }
  stats_.migrations += stats_.cross_shard_migrations;
  stats_.low_migrations += cross_low_;
  stats_.high_migrations += cross_high_;
  static_cast<ckpt::AuditCounters&>(stats_) = safe_points_.audits();
}

std::uint64_t ShardedDailyRun::executed_events() const {
  std::uint64_t events = 0;
  for (const auto& shard : shards_) events += shard->simulator().executed_events();
  return events;
}

void ShardedDailyRun::barrier_handoff(sim::SimTime now) {
  // Serial and in shard order: the ONLY place where shards interact, and
  // the order never depends on thread scheduling.
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const std::vector<MigrationWish> wishes = shards_[k]->take_wishes();
    stats_.stranded_wishes += wishes.size();
    if (shards_.size() == 1) continue;  // nowhere to hand off
    for (const MigrationWish& wish : wishes) resolve_wish(k, wish, now);
  }
}

void ShardedDailyRun::resolve_wish(std::size_t source_shard,
                                   const MigrationWish& wish,
                                   sim::SimTime now) {
  Shard& src = *shards_[source_shard];
  const dc::DataCenter& sdc = src.datacenter();
  const dc::Server& server = sdc.server(wish.server);
  if (!server.active() || server.empty()) return;

  // Re-validate against the band: the epoch may have resolved the excess
  // (or the deficit) locally since the wish was recorded.
  const core::EcoCloudParams& p = config_.params;
  const double u_eff =
      core::MigrationProcedure::effective_utilization(sdc, server);
  const bool is_high = u_eff > p.th;
  if (!is_high && u_eff >= p.tl) return;
  ++stats_.handoff_attempts;

  // VM selection mirrors MigrationProcedure's rules (share > u - Th for
  // high, any movable VM for low) but replaces the uniform draw with a
  // (demand, id) order: the coordinator must not consume any shard's RNG,
  // or a K=1 run would diverge from the single-threaded engine.
  dc::VmId pick = dc::kNoVm;
  if (is_high) {
    const double share_needed = u_eff - p.th;
    dc::VmId smallest_fit = dc::kNoVm;
    double smallest_fit_demand = std::numeric_limits<double>::infinity();
    dc::VmId largest = dc::kNoVm;
    double largest_demand = -1.0;
    for (dc::VmId v : server.vms()) {
      const dc::Vm& vm = sdc.vm(v);
      if (vm.migrating()) continue;
      const double share = vm.demand_mhz / server.capacity_mhz();
      if (share > share_needed &&
          (vm.demand_mhz < smallest_fit_demand ||
           (vm.demand_mhz == smallest_fit_demand && v < smallest_fit))) {
        smallest_fit = v;
        smallest_fit_demand = vm.demand_mhz;
      }
      if (vm.demand_mhz > largest_demand ||
          (vm.demand_mhz == largest_demand && v < largest)) {
        largest = v;
        largest_demand = vm.demand_mhz;
      }
    }
    // Smallest sufficient shedding, else the largest VM (footnote 3).
    pick = smallest_fit != dc::kNoVm ? smallest_fit : largest;
  } else {
    double smallest_demand = std::numeric_limits<double>::infinity();
    for (dc::VmId v : server.vms()) {
      const dc::Vm& vm = sdc.vm(v);
      if (vm.migrating()) continue;
      if (vm.demand_mhz < smallest_demand ||
          (vm.demand_mhz == smallest_demand && v < pick)) {
        pick = v;
        smallest_demand = vm.demand_mhz;
      }
    }
  }
  if (pick == dc::kNoVm) return;  // everything is already leaving

  const double demand_mhz = sdc.vm(pick).demand_mhz;
  const double ram_mb = sdc.vm(pick).ram_mb;
  const double ta_override =
      is_high ? std::min(1.0, p.high_dest_factor * server.utilization()) : -1.0;

  // Destination search over the OTHER shards, starting after the source
  // and wrapping: each destination shard answers with its own invitation
  // round (its controller's RNG — drawn serially, so deterministic).
  for (std::size_t off = 1; off < shards_.size(); ++off) {
    const std::size_t d = (source_shard + off) % shards_.size();
    const std::optional<dc::ServerId> dest =
        shards_[d]->invite(now, demand_mhz, ram_mb, ta_override);
    if (!dest) continue;

    const std::size_t row = src.trace_of(pick);
    // Adopt the row from its OWNER shard (not necessarily the source: the
    // VM may be on its second hand-off, but the owner's copy is identical —
    // a row's state is a pure function of its captured cursor and the
    // step, and every source sits at this barrier's step). Draws no RNG.
    shards_[d]->adopt_trace_row(row, *shards_[plan_.shard_of_trace(row)]);
    src.release_vm(pick);
    shards_[d]->accept_transfer(now, row, *dest);

    ++stats_.cross_shard_migrations;
    ++(is_high ? cross_high_ : cross_low_);
    const auto global_vm = static_cast<dc::VmId>(row);
    coordinator_events_.push_back(metrics::Event{
        now, metrics::EventKind::kMigrationStart, global_vm, dc::kNoServer,
        is_high});
    coordinator_events_.push_back(metrics::Event{
        now, metrics::EventKind::kMigrationComplete, global_vm, dc::kNoServer,
        is_high});
    return;
  }
}

std::vector<metrics::Sample> ShardedDailyRun::merged_samples() const {
  // K=1: hand back shard 0's samples verbatim — no re-derivation, so the
  // bytes a CSV writer produces match the single-threaded run exactly.
  if (shards_.size() == 1) return shards_[0]->collector().samples();

  const std::size_t n = shards_[0]->collector().samples().size();
  for (const auto& shard : shards_) {
    util::ensure(shard->collector().samples().size() == n,
                 "ShardedDailyRun: shards sampled different window counts");
  }
  std::vector<metrics::Sample> merged(n);
  for (std::size_t i = 0; i < n; ++i) {
    metrics::Sample& m = merged[i];
    m.time = shards_[0]->collector().samples()[i].time;
    double capacity = 0.0;
    double demand = 0.0;
    for (const auto& shard : shards_) {
      const metrics::Sample& s = shard->collector().samples()[i];
      m.active_servers += s.active_servers;
      m.booting_servers += s.booting_servers;
      m.power_w += s.power_w;
      m.window_energy_j += s.window_energy_j;
      m.window_vm_seconds += s.window_vm_seconds;
      m.window_overload_vm_seconds += s.window_overload_vm_seconds;
      const double cap = shard->datacenter().total_capacity_mhz();
      capacity += cap;
      demand += s.overall_load * cap;
    }
    // Capacity-weighted mean == global demand / global capacity, the
    // single-datacenter definition of overall_load.
    m.overall_load = capacity > 0.0 ? demand / capacity : 0.0;
    m.overload_percent =
        m.window_vm_seconds > 0.0
            ? 100.0 * m.window_overload_vm_seconds / m.window_vm_seconds
            : 0.0;
  }
  return merged;
}

void ShardedDailyRun::at_barrier() {
  safe_points_.at(
      t_, executed_events(), [this](ckpt::AuditRound& round) { run_audits(round); },
      [this](const std::string& path) { save_snapshot(path); });
  if (on_barrier) on_barrier(t_);
}

void ShardedDailyRun::run_audits(ckpt::AuditRound& round) {
  // Per-shard invariants first (calendar integrity, fleet accounting, VM ownership vs
  // controller/redeploy tracking) — each shard's auditor applies the configured action
  // itself (log/heal/abort).
  for (auto& auditor : auditors_) ckpt::audit_into(*auditor, round);
  // Then the invariants no single shard can see.
  const std::vector<std::string> cross = cross_shard_failures();
  round.failed_checks += cross.size();
  if (cross.empty()) return;
  std::fprintf(stderr, "[audit] t=%.3f: %zu cross-shard violation(s):\n", t_,
               cross.size());
  for (const std::string& failure : cross) {
    std::fprintf(stderr, "[audit]   %s\n", failure.c_str());
  }
  // kHeal has no cross-shard remedy (nothing cacheable spans shards), so
  // it degrades to logging; abort keeps its distinct exit code.
  if (ckpt::parse_audit_action(config_.run.audit_action) ==
      ckpt::AuditAction::kAbort) {
    std::fprintf(stderr, "[audit] aborting (action=abort)\n");
    std::_Exit(util::exit_code::kAuditViolation);
  }
}

std::vector<std::string> ShardedDailyRun::cross_shard_failures() {
  std::vector<std::string> failures;

  // Every global trace row must be driven by at most one shard: a row
  // driven twice means a cross-shard hand-off duplicated a VM instead of
  // moving it.
  std::vector<std::uint8_t> driven(plan_.num_traces(), 0);
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const Shard& shard = *shards_[k];
    for (const auto& [vm, row] : shard.trace_driver().mapped_vms()) {
      (void)vm;
      if (driven[row]++ != 0) {
        failures.push_back("trace row " + std::to_string(row) +
                           " is driven by more than one shard (duplicate VM "
                           "after hand-off; last seen on shard " +
                           std::to_string(k) + ")");
      }
    }
  }

  // Fleet capacity conservation: the shards must partition the configured
  // fleet exactly — capacity can neither appear nor vanish at hand-offs.
  double capacity = 0.0;
  for (const auto& shard : shards_) {
    capacity += shard->datacenter().total_capacity_mhz();
  }
  double expected = 0.0;
  const scenario::FleetConfig& fleet = config_.fleet;
  for (std::size_t i = 0; i < fleet.num_servers; ++i) {
    expected += static_cast<double>(fleet.core_mix[i % fleet.core_mix.size()]) *
                fleet.core_mhz;
  }
  if (std::abs(capacity - expected) >
      config_.run.audit_tolerance * expected) {
    failures.push_back("fleet capacity is " + std::to_string(capacity) +
                       " MHz across shards, expected " +
                       std::to_string(expected) + " MHz from the config");
  }

  // Energy conservation: each shard's cumulative energy integral must be
  // non-decreasing between barriers (it only resets at the warmup
  // boundary, where last_energy_ is cleared too).
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const double energy = shards_[k]->datacenter().energy_joules();
    if (energy < last_energy_[k]) {
      failures.push_back("shard " + std::to_string(k) +
                         " energy integral went backwards: " +
                         std::to_string(last_energy_[k]) + " J -> " +
                         std::to_string(energy) + " J");
    }
    last_energy_[k] = energy;
  }
  return failures;
}

std::vector<EventStream> ShardedDailyRun::event_streams() const {
  util::require(record_events_,
                "ShardedDailyRun: the run keeps no event log");
  // (K+1)-way merge over per-shard segments (each already time-ordered)
  // plus the coordinator's cross-shard rows, keyed by (time, stream) with
  // the coordinator last, with local ids translated to global — K=1
  // reproduces a single-threaded run's stream exactly.
  std::vector<EventStream> streams;
  streams.reserve(shards_.size() + 1);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard* shard = shards_[s].get();
    streams.push_back(EventStream{
        &shard->event_log().events(), [this, shard, s](const metrics::Event& raw) {
          metrics::Event e = raw;
          if (e.vm != dc::kNoVm) {
            e.vm = static_cast<dc::VmId>(shard->trace_of(e.vm));
          }
          if (e.server != dc::kNoServer) {
            e.server = plan_.global_server(s, e.server);
          }
          return e;
        }});
  }
  streams.push_back(EventStream{&coordinator_events_, {}});
  return streams;
}

std::vector<metrics::Event> ShardedDailyRun::merged_events() const {
  return merge_event_streams(event_streams());
}

void ShardedDailyRun::write_events_csv(std::ostream& out) const {
  metrics::write_events_csv(out, merged_events());
}

void ShardedDailyRun::write_events_binary(std::ostream& out) const {
  // Streamed: no merged copy of the log next to the shard segments.
  metrics::BinaryEventWriter writer(out);
  for_each_merged_event(event_streams(),
                        [&writer](const metrics::Event& e) { writer.write(e); });
}

}  // namespace ecocloud::par
