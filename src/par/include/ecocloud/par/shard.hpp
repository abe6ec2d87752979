#pragma once

/// \file shard.hpp
/// \brief One shard of a sharded daily run: a scenario::DailyScenario over
/// its slice of the fleet, plus the little state that only sharding needs.
///
/// The DailyScenario owns everything a single-calendar run owns — slab
/// event calendar, datacenter slice, trace driver, ecoCloud controller with
/// its own RNG streams, metrics collector, fault injector — and is built
/// over the shard's FleetSlice (DESIGN.md §12), so the fleet, seed
/// derivation and fault localization exist in one place, and it reads
/// demand through its own trace::TraceSource (DESIGN.md §14/§17).
/// On top the shard keeps its VM -> global trace row map, the migration
/// wishes recorded for the coordinator, and its event-log segment.
/// Between epoch barriers a shard never touches another shard's state;
/// everything cross-shard goes through the coordinator (sharded_runner),
/// which runs serially — including adopt_trace_row, which makes a
/// handed-off VM's trace row drivable on its destination shard.

#include <cstdint>
#include <optional>
#include <vector>

#include "ecocloud/metrics/event_log.hpp"
#include "ecocloud/par/partition.hpp"
#include "ecocloud/scenario/scenario.hpp"
#include "ecocloud/util/binio.hpp"

namespace ecocloud::ckpt {
class CheckpointManager;
}

namespace ecocloud::par {

/// A server whose migration trial fired with no local destination; recorded
/// during an epoch, resolved (or dropped) by the coordinator at the next
/// barrier. Deduplicated per server per epoch.
struct MigrationWish {
  sim::SimTime time = 0.0;
  dc::ServerId server = dc::kNoServer;  ///< local id within the shard
  bool is_high = false;
};

class Shard {
 public:
  /// Shard \p shard_id of \p plan, driving its VMs from \p traces (entry
  /// \p shard_id of scenario::generate_daily_traces — the partition rule
  /// and ShardPlan::shard_of_trace agree by construction).
  Shard(const scenario::DailyConfig& config, const ShardPlan& plan,
        std::size_t shard_id, trace::TraceSource traces);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  [[nodiscard]] std::size_t id() const { return id_; }

  /// The shard's simulation. The coordinator drives its lifecycle
  /// (begin_deploy, start_services, run_slice, finish) directly.
  [[nodiscard]] scenario::DailyScenario& daily() { return daily_; }
  [[nodiscard]] const scenario::DailyScenario& daily() const { return daily_; }

  /// Create + map + deploy the VM of global trace row \p trace_index at
  /// t = 0. Returns false when the shard is saturated (assignment failed);
  /// the VM stays created and mapped, exactly as in DailyScenario.
  bool deploy(std::size_t trace_index);

  /// Start recording the shard's decision events into its event-log
  /// segment (off until called; idempotent). Call before the first event.
  void record_events();

  /// Undo the trace mapping of the last failed deploy so the runner can
  /// retry the VM on another shard without this one double-driving it.
  void abandon_last_deploy();

  /// Checkpoint surface for the shard's own coordination state: the
  /// VM->trace map, the pending migration wishes, and the dedup flags.
  /// load_state validates every size and id against the plan and throws
  /// ckpt::SnapshotError on a mismatch.
  void save_state(util::BinWriter& w) const;
  void load_state(util::BinReader& r);

  /// Register the shard's DailyScenario (sections and calendar-event
  /// owners), the shard coordination section and the event-log segment
  /// with \p manager. The event-log section records whether the shard
  /// was recording; a recording shard refuses a snapshot that was not.
  void register_checkpoint(ckpt::CheckpointManager& manager);

  // --- Coordinator surface (serial, between epochs) ---

  /// One invitation round over this shard's fleet for an incoming migrant.
  /// Draws from this shard's own controller RNG — callable only from the
  /// serial barrier, in shard order, or determinism is lost.
  [[nodiscard]] std::optional<dc::ServerId> invite(sim::SimTime now,
                                                   double demand_mhz,
                                                   double ram_mb,
                                                   double ta_override);

  /// Materialize the VM of \p trace_index on \p dest (an active local
  /// server that volunteered) and start driving it from the trace.
  dc::VmId accept_transfer(sim::SimTime t, std::size_t trace_index,
                           dc::ServerId dest);

  /// Remove a VM handed off to another shard: stop driving it and run the
  /// normal departure path (which also re-evaluates hibernation).
  void release_vm(dc::VmId vm);

  /// Make global trace row \p trace_index drivable here by adopting it
  /// from \p home's source (trace::TraceSource::adopt_row), so
  /// deploy/accept_transfer can drive it. No-op when already resident;
  /// serial coordinator code only, at a barrier (both sources at the same
  /// step).
  void adopt_trace_row(std::size_t trace_index, const Shard& home);

  /// Drain the wishes recorded since the previous barrier.
  [[nodiscard]] std::vector<MigrationWish> take_wishes();

  /// Global trace row of a local VM (valid for every VM ever created here).
  [[nodiscard]] std::size_t trace_of(dc::VmId vm) const {
    return vm_trace_[vm];
  }

  [[nodiscard]] sim::Simulator& simulator() { return daily_.simulator(); }
  [[nodiscard]] const sim::Simulator& simulator() const {
    return daily_.simulator();
  }
  [[nodiscard]] dc::DataCenter& datacenter() { return daily_.datacenter(); }
  [[nodiscard]] const dc::DataCenter& datacenter() const {
    return daily_.datacenter();
  }
  [[nodiscard]] core::EcoCloudController& controller() {
    return *daily_.ecocloud();
  }
  [[nodiscard]] const core::EcoCloudController& controller() const {
    return *daily_.ecocloud();
  }
  [[nodiscard]] const metrics::MetricsCollector& collector() const {
    return daily_.collector();
  }
  [[nodiscard]] const metrics::EventLog& event_log() const { return log_; }
  [[nodiscard]] const core::TraceDriver& trace_driver() const {
    return daily_.trace_driver();
  }
  /// Non-null only when the run's FaultParams are enabled.
  [[nodiscard]] faults::FaultInjector* fault_injector() {
    return daily_.fault_injector();
  }
  [[nodiscard]] const faults::FaultInjector* fault_injector() const {
    return daily_.fault_injector();
  }

 private:
  /// Create and map the VM of \p trace_index, recording its trace row.
  dc::VmId create_vm(std::size_t trace_index);

  const ShardPlan& plan_;
  std::size_t id_;
  scenario::DailyScenario daily_;
  metrics::EventLog log_;
  bool recording_ = false;

  /// Local VmId -> global trace row; append-only, so event rows translate
  /// even for VMs that have since been handed off.
  std::vector<std::size_t> vm_trace_;
  dc::VmId last_deployed_ = dc::kNoVm;

  std::vector<MigrationWish> wishes_;
  std::vector<std::uint8_t> wished_;  ///< per local server, dedup flag
};

}  // namespace ecocloud::par
