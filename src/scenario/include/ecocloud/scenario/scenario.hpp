#pragma once

/// \file scenario.hpp
/// \brief Ready-made experiment setups for the paper's two evaluations.
///
/// Benches, examples and integration tests all run the same two scenarios;
/// centralizing the setup keeps every figure reproduction consistent:
///
///  * DailyScenario (Sec. III) — 400 servers (1/3 x 4, 1/3 x 6, 1/3 x 8
///    cores at 2 GHz), 6,000 trace-driven VMs, ecoCloud assignment +
///    migration, 48 hours, metrics every 30 minutes.
///  * ConsolidationScenario (Sec. IV) — 100 six-core servers, 1,500
///    initial VMs spread randomly (10-30% per-server load), migrations
///    disabled, open arrivals/departures, 18 hours starting at midnight.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ecocloud/baseline/centralized_controller.hpp"
#include "ecocloud/ckpt/safe_points.hpp"
#include "ecocloud/net/topology.hpp"
#include "ecocloud/core/controller.hpp"
#include "ecocloud/core/open_system.hpp"
#include "ecocloud/core/trace_driver.hpp"
#include "ecocloud/faults/fault_injector.hpp"
#include "ecocloud/metrics/collector.hpp"
#include "ecocloud/trace/rate_estimator.hpp"
#include "ecocloud/trace/trace_source.hpp"

namespace ecocloud::ckpt {
class CheckpointManager;
}

namespace ecocloud::scenario {

/// Fleet mix of the Sec. III experiment.
struct FleetConfig {
  std::size_t num_servers = 400;
  double core_mhz = 2000.0;
  /// Server classes, assigned round-robin: one third each of 4/6/8 cores.
  std::vector<unsigned> core_mix = {4, 6, 8};
  double ram_per_core_mb = 4096.0;
};

/// The part of a fleet one DailyScenario simulates: the round-robin slice
/// of global servers g with g % count == index (par::ShardPlan's
/// partition, DESIGN.md §12). The default is the whole fleet.
struct FleetSlice {
  std::size_t count = 1;
  std::size_t index = 0;
};

/// Build the hibernated servers of \p slice into \p datacenter, in global
/// order. The class mix follows the global index, so every slice inherits
/// the fleet's round-robin core proportions.
void build_fleet(dc::DataCenter& datacenter, const FleetConfig& fleet,
                 FleetSlice slice = {});

/// Parameters of the 48-hour daily-cycle experiment.
struct DailyConfig {
  FleetConfig fleet;
  std::size_t num_vms = 6000;
  sim::SimTime horizon_s = 48.0 * sim::kHour;
  core::EcoCloudParams params;  // paper defaults
  trace::WorkloadConfig workload;
  std::uint64_t seed = 20130520;  // arbitrary but fixed
  /// Store the synthetic traces as streaming cursor banks, O(VMs) memory,
  /// instead of an O(VMs x horizon) matrix; same event stream bit for bit
  /// (DESIGN.md §14). Not in the config digest, so snapshots are portable
  /// across the two. Forced off when traces are supplied externally.
  bool streaming_traces = false;
  /// Skip accounting during the initial consolidation transient.
  sim::SimTime warmup_s = 0.0;
  /// When set, the fleet is organized into racks: invitations go to one
  /// random rack (footnote 1) and migration times include RAM transfer
  /// over the intra-/inter-rack bandwidth. ecoCloud only.
  std::optional<net::TopologyConfig> topology;
  /// Fault injection (crashes, lossy control plane, boot/migration
  /// failures). All-zero (the default) runs the exact fault-free code
  /// paths; see src/faults. ecoCloud only.
  faults::FaultParams faults;
  /// Checkpoint/audit/watchdog wiring (not part of the config digest).
  ckpt::RunControl run;
};

/// Which algorithm drives the daily scenario.
///  * kEcoCloud     — the paper's decentralized procedures;
///  * kCentralized  — periodic global reoptimization (baseline module);
///  * kStatic       — no consolidation at all: every server active, VMs
///    spread round-robin, no migrations (the "before" reference that
///    motivates the paper's Sec. I under-utilization discussion).
enum class Algorithm { kEcoCloud, kCentralized, kStatic };

/// Configuration fingerprint of a daily run (every field that shapes the
/// deterministic event stream, printed with round-tripping precision).
/// Shared by DailyScenario::config_digest and the sharded runner, which
/// appends its shard count so single- and sharded-run snapshots never
/// restore into each other.
[[nodiscard]] std::string daily_config_digest(const DailyConfig& config,
                                              const char* algo);

/// The synthetic workload of a daily run, one trace::TraceSource per fleet
/// slice. It is generated once from the bare seed, so the demand is a
/// function of the config alone and not of the slicing: materialized mode
/// has every slice read one shared TraceSet, streaming mode
/// (config.streaming_traces) gives slice k the cursor bank of the trace rows
/// congruent to k modulo \p num_slices. Both modes yield the same samples
/// bit for bit.
[[nodiscard]] std::vector<trace::TraceSource> generate_daily_traces(
    const DailyConfig& config, std::size_t num_slices);

/// A fully wired daily-cycle experiment. Construct, then run().
///
/// The same class is one shard of a sharded run (par::Shard): built over a
/// FleetSlice, it simulates only that slice's servers, draws from
/// Rng(seed ^ index * golden) — the seed itself for slice 0 — and applies
/// only the scripted faults that hit its servers, with ids rewritten to
/// local ones. The coordinator then drives the deployment wave through
/// begin_deploy() / create_vm() / deploy_vm() / start_services().
class DailyScenario {
 public:
  explicit DailyScenario(DailyConfig config,
                         Algorithm algorithm = Algorithm::kEcoCloud,
                         baseline::CentralizedParams centralized_params = {});

  /// Drive the scenario with externally supplied traces (e.g. real
  /// PlanetLab logs imported via trace::read_planetlab_dir) instead of the
  /// synthetic workload; config.num_vms is taken from the trace set.
  DailyScenario(DailyConfig config, trace::TraceSet traces,
                Algorithm algorithm = Algorithm::kEcoCloud,
                baseline::CentralizedParams centralized_params = {});

  /// One fleet slice of a sharded ecoCloud run, driving its VMs from
  /// \p traces (this slice's entry of generate_daily_traces).
  DailyScenario(DailyConfig config, FleetSlice slice, trace::TraceSource traces);

  /// Deploy all VMs at t=0 and simulate the full horizon. Equivalent to
  /// start() + run_slice(horizon) + finish(). A run restored from a
  /// snapshot skips start() — state and the event calendar came back with
  /// it — and calls run_slice(horizon) + finish().
  void run();

  /// Setup phase of run() without advancing simulation time: boot the static fleet if
  /// applicable, start fault hooks, create and deploy every VM, start the drivers and the
  /// collector. Equivalent to begin_deploy(), deploy_vm(create_vm(i)) for every trace row
  /// i, start_services() — the steps par::ShardedDailyRun::start drives over its shards.
  void start();

  /// First step of start(): boot the static fleet if applicable and
  /// install the fault hooks, so message loss applies to the deployment
  /// wave too.
  void begin_deploy();

  /// Create the VM of trace row \p trace_index at t = 0 and drive its
  /// demand from the trace from now on.
  dc::VmId create_vm(std::size_t trace_index);

  /// Place \p vm with the run's algorithm. False when the ecoCloud
  /// assignment found no server (the VM stays created and mapped).
  bool deploy_vm(dc::VmId vm);

  /// Last step of start(): start the trace ticks, the controllers'
  /// periodic services and the collector.
  void start_services();

  /// Advance the simulation to min(\p until, horizon), performing the
  /// warmup accounting reset when the slice crosses warmup_s. Slicing is
  /// invisible to the event stream: nothing samples the clock between
  /// events, so N slices execute the identical event sequence as one
  /// run_until(horizon). Returns true once the horizon has been reached.
  bool run_slice(sim::SimTime until);

  /// Post-horizon bookkeeping: advance idle-interval accounting to the
  /// horizon and finalize fault statistics. Call exactly once, after
  /// run_slice() has returned true.
  void finish();

  /// Register this scenario's state sections and calendar-event owners
  /// (controller, trace driver, collector, faults, scenario flags) plus
  /// the config digest. ecoCloud only: the baseline controllers schedule
  /// untagged events and cannot be checkpointed.
  void register_checkpoint(ckpt::CheckpointManager& manager);

  /// Fingerprint of the immutable configuration; snapshots only restore
  /// into a scenario with an identical digest.
  [[nodiscard]] std::string config_digest() const;

  [[nodiscard]] const DailyConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const sim::Simulator& simulator() const { return sim_; }
  [[nodiscard]] dc::DataCenter& datacenter() { return *dc_; }
  [[nodiscard]] const dc::DataCenter& datacenter() const { return *dc_; }
  /// The demand rows this scenario replays.
  [[nodiscard]] trace::TraceSource& trace_source() { return *traces_; }
  [[nodiscard]] const trace::TraceSource& trace_source() const { return *traces_; }
  [[nodiscard]] core::TraceDriver& trace_driver() { return *trace_driver_; }
  [[nodiscard]] const core::TraceDriver& trace_driver() const {
    return *trace_driver_;
  }
  [[nodiscard]] metrics::MetricsCollector& collector() { return *collector_; }
  [[nodiscard]] const metrics::MetricsCollector& collector() const {
    return *collector_;
  }
  [[nodiscard]] core::EcoCloudController* ecocloud() { return eco_.get(); }
  [[nodiscard]] const core::EcoCloudController* ecocloud() const {
    return eco_.get();
  }
  [[nodiscard]] baseline::CentralizedController* centralized() {
    return central_.get();
  }
  [[nodiscard]] const net::Topology* topology() const { return topology_.get(); }
  /// Non-null only when config.faults.enabled() and the algorithm is
  /// kEcoCloud; carries the resilience statistics of the run.
  [[nodiscard]] faults::FaultInjector* fault_injector() { return injector_.get(); }
  [[nodiscard]] const faults::FaultInjector* fault_injector() const {
    return injector_.get();
  }

 private:
  /// The one place a daily run is wired, for every constructor: trace
  /// source, fleet slice, trace driver, controller, collector, fault
  /// injector.
  void init(FleetSlice slice, trace::TraceSource traces,
            const baseline::CentralizedParams& centralized_params);

  DailyConfig config_;
  Algorithm algorithm_;
  sim::Simulator sim_;
  std::unique_ptr<net::Topology> topology_;
  std::unique_ptr<dc::DataCenter> dc_;
  std::unique_ptr<trace::TraceSource> traces_;
  std::unique_ptr<core::TraceDriver> trace_driver_;
  std::unique_ptr<core::EcoCloudController> eco_;
  std::unique_ptr<baseline::CentralizedController> central_;
  std::unique_ptr<metrics::MetricsCollector> collector_;
  std::unique_ptr<faults::FaultInjector> injector_;
  /// Whether the warmup accounting reset already happened (part of the
  /// scenario snapshot section, so a resume before/after warmup behaves
  /// exactly like the uninterrupted run).
  bool warmup_done_ = false;
};

/// Parameters of the Sec. IV consolidation experiment.
struct ConsolidationConfig {
  std::size_t num_servers = 100;
  unsigned cores_per_server = 6;
  double core_mhz = 2000.0;
  std::size_t initial_vms = 1500;
  sim::SimTime horizon_s = 18.0 * sim::kHour;
  /// Mean VM lifetime (1/nu). The paper does not publish its lambda/mu;
  /// 2 h gives enough turnover for the system to reach the Fig.-12 steady
  /// state within ~6 hours, as the paper reports.
  sim::SimTime mean_lifetime_s = 2.0 * sim::kHour;
  core::EcoCloudParams params;  // migrations disabled in the constructor
  /// Reference capacity lowered so 1,500 VMs load 100 servers to the
  /// paper's "10-30%" starting condition (DESIGN.md Sec. 5).
  trace::WorkloadConfig workload{.reference_mhz = 1600.0};
  std::uint64_t seed = 19731123;
  /// Metrics sampling period (finer than 30 min to resolve the transient).
  sim::SimTime sample_period_s = 900.0;
  /// Checkpoint/audit/watchdog wiring (not part of the config digest).
  ckpt::RunControl run;
};

/// The migration-free consolidation experiment with open arrivals.
class ConsolidationScenario {
 public:
  explicit ConsolidationScenario(ConsolidationConfig config);

  /// Simulate the full horizon: start() + run_slice(horizon) + finish().
  /// A run restored from a snapshot skips start().
  void run();

  /// Setup without advancing simulation time: the non-consolidated start
  /// (every server active, the initial population spread uniformly), then
  /// the drivers and the collector.
  void start();

  /// Advance the simulation to min(\p until, horizon). Slicing is
  /// invisible to the event stream (see DailyScenario::run_slice). Returns
  /// true once the horizon has been reached.
  bool run_slice(sim::SimTime until);

  /// Advance idle-interval accounting to the horizon. Call exactly once,
  /// after run_slice() has returned true.
  void finish();

  /// Register state sections and event owners with a checkpoint manager
  /// (datacenter, controller, trace driver, open system, rate estimator,
  /// collector) plus the config digest.
  void register_checkpoint(ckpt::CheckpointManager& manager);

  [[nodiscard]] std::string config_digest() const;

  [[nodiscard]] const ConsolidationConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] dc::DataCenter& datacenter() { return *dc_; }
  [[nodiscard]] metrics::MetricsCollector& collector() { return *collector_; }
  [[nodiscard]] core::EcoCloudController& controller() { return *eco_; }
  [[nodiscard]] trace::RateEstimator& rates() { return *rates_; }
  [[nodiscard]] core::OpenSystemDriver& open_system() { return *open_; }

  /// Arrival rate used to drive the scenario (VMs/second at time t).
  [[nodiscard]] double lambda(sim::SimTime t) const;

  /// Per-VM departure rate (1/s).
  [[nodiscard]] double nu() const { return 1.0 / config_.mean_lifetime_s; }

  /// Mean VM demand as a fraction of one server's capacity — the fluid
  /// model's vm_share for this fleet.
  [[nodiscard]] double mean_vm_share() const;

 private:
  ConsolidationConfig config_;
  sim::Simulator sim_;
  std::unique_ptr<dc::DataCenter> dc_;
  std::unique_ptr<trace::TraceSource> traces_;
  std::unique_ptr<core::TraceDriver> trace_driver_;
  std::unique_ptr<core::EcoCloudController> eco_;
  std::unique_ptr<core::OpenSystemDriver> open_;
  std::unique_ptr<trace::RateEstimator> rates_;
  std::unique_ptr<metrics::MetricsCollector> collector_;
};

}  // namespace ecocloud::scenario
