#pragma once

/// \file datacenter.hpp
/// \brief Data-center state: servers, VMs, placement, exact accounting.
///
/// DataCenter is the single owner of placement state. Every mutator takes
/// the current simulation time and first integrates the piecewise-constant
/// quantities (power -> energy, overload VM-time, VM-time) over the elapsed
/// interval, so energy and QoS metrics are exact rather than sampled.
///
/// The class is deliberately policy-free: ecoCloud and the centralized
/// baselines drive it through the same interface, which is what makes the
/// comparison benches apples-to-apples.
///
/// Fleet storage is structure-of-arrays (ServerSoA / VmSoA, see server.hpp
/// and vm.hpp): server(s)/vm(v) hand out views/snapshots over parallel POD
/// columns. Per-state membership is a dense swap-erase index set per state
/// (O(1) transitions, contiguous walks for the O(1) samplers); the sorted
/// ascending-id view that pins the legacy RNG draw order is materialized
/// lazily and cached until the next transition (DESIGN.md §14).

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ecocloud/dc/ids.hpp"
#include "ecocloud/dc/power.hpp"
#include "ecocloud/dc/server.hpp"
#include "ecocloud/dc/vm.hpp"
#include "ecocloud/sim/time.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::dc {

/// One completed overload episode on a server (for the paper's Sec. III
/// claim that >98% of violations last under 30 s with >=98% CPU granted).
struct OverloadEpisode {
  ServerId server = kNoServer;
  sim::SimTime start = 0.0;
  double duration_s = 0.0;
  /// Worst (lowest) fraction of demanded CPU granted during the episode.
  double min_granted_fraction = 1.0;
};

/// Iterable fleet view: yields a Server view per id, ascending. Replaces
/// the former `const std::vector<Server>&` (the records no longer exist as
/// contiguous structs); every call site was already a range-for.
class ServerRange {
 public:
  class iterator {
   public:
    iterator(ServerSoA* soa, ServerId id) : soa_(soa), id_(id) {}
    Server operator*() const { return Server(*soa_, id_); }
    iterator& operator++() {
      ++id_;
      return *this;
    }
    bool operator==(const iterator& other) const { return id_ == other.id_; }
    bool operator!=(const iterator& other) const { return id_ != other.id_; }

   private:
    ServerSoA* soa_;
    ServerId id_;
  };

  explicit ServerRange(ServerSoA* soa) : soa_(soa) {}
  [[nodiscard]] std::size_t size() const { return soa_->size(); }
  [[nodiscard]] iterator begin() const { return iterator(soa_, 0); }
  [[nodiscard]] iterator end() const {
    return iterator(soa_, static_cast<ServerId>(soa_->size()));
  }
  [[nodiscard]] Server operator[](std::size_t i) const {
    return Server(*soa_, static_cast<ServerId>(i));
  }

 private:
  ServerSoA* soa_;
};

class DataCenter {
 public:
  explicit DataCenter(PowerModel power_model = PowerModel{});

  // --- Construction -------------------------------------------------------

  /// Add a server (initially hibernated). Returns its id.
  ServerId add_server(unsigned num_cores, double core_mhz, double ram_mb = 0.0);

  /// Create an unplaced VM. Returns its id.
  VmId create_vm(double demand_mhz, double ram_mb = 0.0);

  /// Pre-size the VM columns (planet-scale fleets know their VM count).
  void reserve_vms(std::size_t n) { vms_.reserve(n); }

  // --- Queries -------------------------------------------------------------

  [[nodiscard]] std::size_t num_servers() const { return servers_.size(); }
  [[nodiscard]] std::size_t num_vms() const { return vms_.size(); }
  /// View of one server. Views read/write the columns live; the const
  /// qualifier here guards the *DataCenter* API surface (aggregate caches),
  /// not the view itself — mutate servers only through DataCenter, or
  /// through server_mutable() for the cooldown/grace fields it owns.
  [[nodiscard]] Server server(ServerId s) const {
    util::require(s < servers_.size(), "DataCenter::server: unknown server");
    return Server(const_cast<ServerSoA&>(servers_), s);
  }
  [[nodiscard]] Server server_mutable(ServerId s) {
    util::require(s < servers_.size(),
                  "DataCenter::server_mutable: unknown server");
    return Server(servers_, s);
  }
  /// Snapshot of one VM's record, assembled from the columns. Does NOT
  /// track later mutations — hot paths use the vm_*() column accessors.
  [[nodiscard]] Vm vm(VmId v) const {
    util::require(v < vms_.size(), "DataCenter::vm: unknown VM");
    return vms_.get(v);
  }
  [[nodiscard]] ServerRange servers() const {
    return ServerRange(const_cast<ServerSoA*>(&servers_));
  }
  /// Raw column storage of the fleet, read-only: the batched monitor
  /// kernel (monitor_kernel.hpp) sweeps these columns directly instead of
  /// going through one Server view per row.
  [[nodiscard]] const ServerSoA& servers_soa() const { return servers_; }
  [[nodiscard]] const PowerModel& power_model() const { return power_model_; }

  // O(1) column reads for the hot paths (trace ticks, migration checks).
  [[nodiscard]] double vm_demand_mhz(VmId v) const { return vms_.demand_mhz[v]; }
  [[nodiscard]] double vm_ram_mb(VmId v) const { return vms_.ram_mb[v]; }
  [[nodiscard]] ServerId vm_host(VmId v) const { return vms_.host[v]; }
  [[nodiscard]] ServerId vm_migrating_to(VmId v) const {
    return vms_.migrating_to[v];
  }
  [[nodiscard]] bool vm_placed(VmId v) const { return vms_.host[v] != kNoServer; }
  [[nodiscard]] bool vm_migrating(VmId v) const {
    return vms_.migrating_to[v] != kNoServer;
  }

  [[nodiscard]] std::size_t active_server_count() const {
    return state_members(ServerState::kActive).size();
  }
  [[nodiscard]] std::size_t booting_server_count() const {
    return state_members(ServerState::kBooting).size();
  }
  [[nodiscard]] std::size_t placed_vm_count() const { return placed_vm_count_; }

  /// Sum of all server capacities (MHz), regardless of state.
  [[nodiscard]] double total_capacity_mhz() const { return total_capacity_mhz_; }

  /// Sum of demands of placed VMs (MHz).
  [[nodiscard]] double total_demand_mhz() const { return total_demand_mhz_; }

  /// Overall load: placed demand / total capacity (the paper's reference
  /// curve in Figs. 6 and 12).
  [[nodiscard]] double overall_load() const;

  /// Instantaneous total power draw (W) over all servers.
  [[nodiscard]] double total_power_w() const { return total_power_w_; }

  /// Ids of servers currently in the given state, ascending by id. The
  /// ascending order matches what a full scan would produce, which pins
  /// the RNG draw sequence of every legacy consumer (invitation rounds,
  /// wake-up picks). Materialized lazily from the dense membership set and
  /// cached until the next state transition, so repeated reads between
  /// transitions cost nothing. The reference is invalidated by any state
  /// transition; copy it before mutating.
  [[nodiscard]] const std::vector<ServerId>& servers_with(ServerState state) const;

  /// Ids of servers currently in the given state, in *membership* order:
  /// dense, contiguous, swap-erase maintained — the order servers entered
  /// the state, with unordered O(1) removal. Deterministic given the event
  /// history (and checkpointed verbatim), but NOT sorted; this is what the
  /// O(1)/O(k) samplers draw from. The reference is invalidated by any
  /// state transition.
  [[nodiscard]] const std::vector<ServerId>& state_members(ServerState state) const {
    return state_members_[static_cast<std::size_t>(state)];
  }

  /// Position of server \p s inside state_members(<its current state>).
  /// Lets samplers exclude a specific server in O(1): a draw over
  /// [0, members-1) is remapped around this slot instead of copying the
  /// membership set without it.
  [[nodiscard]] std::uint32_t position_in_state(ServerId s) const {
    return state_pos_[s];
  }

  /// Ids of servers currently in the given state (owning copy, ascending).
  [[nodiscard]] std::vector<ServerId> servers_in_state(ServerState state) const;

  /// Utilizations of all active servers (ascending server id).
  [[nodiscard]] std::vector<double> active_utilizations() const;

  // --- Accounting (integrated exactly between events) ----------------------

  [[nodiscard]] sim::SimTime last_update_time() const { return last_time_; }

  /// Integrate power/overload/VM-time up to time \p t (monotone).
  void advance_to(sim::SimTime t);

  /// Total electrical energy consumed so far, in joules.
  [[nodiscard]] double energy_joules() const { return energy_j_; }

  /// Integral of (#VMs on overloaded servers) dt, in VM-seconds.
  [[nodiscard]] double overload_vm_seconds() const { return overload_vm_seconds_; }

  /// Integral of (#placed VMs) dt, in VM-seconds.
  [[nodiscard]] double vm_seconds() const { return vm_seconds_; }

  /// Completed overload episodes (open episodes are not included).
  [[nodiscard]] const std::vector<OverloadEpisode>& overload_episodes() const {
    return overload_episodes_;
  }

  /// Cumulative seconds server \p s has spent overloaded up to time \p t
  /// (t must be >= the last accounting update).
  [[nodiscard]] double server_overload_seconds(ServerId s, sim::SimTime t) const;

  /// Exact seconds VM \p v has spent hosted on overloaded servers — the
  /// per-VM reading of Fig. 11's "time in which the CPU demanded by a VM
  /// cannot be completely granted". O(1); maintained across migrations.
  [[nodiscard]] double vm_overload_seconds(VmId v, sim::SimTime t) const;

  /// Reset the energy/overload accumulators (used to skip warm-up periods).
  void reset_accounting(sim::SimTime t);

  // --- Mutators (all advance accounting to \p t first) ----------------------

  /// Place an unplaced VM on an active server.
  void place_vm(sim::SimTime t, VmId v, ServerId s);

  /// Remove a placed, non-migrating VM from its server (e.g. VM departure).
  void unplace_vm(sim::SimTime t, VmId v);

  /// Update a VM's CPU demand from the trace; adjusts its host's load.
  void set_vm_demand(sim::SimTime t, VmId v, double demand_mhz);

  /// Bracket the set_vm_demand() calls of one trace tick, which together
  /// are one instantaneous refresh. Inside the bracket a host that crosses
  /// capacity between two of its VMs' updates opens or closes no overload
  /// episode; end_demand_refresh() settles every server's episode from the
  /// state it has after the whole refresh. Power, overload VM-time and
  /// energy are updated per call as outside the bracket (no time passes
  /// within it, so the transient states integrate to zero).
  void begin_demand_refresh();
  void end_demand_refresh(sim::SimTime t);

  /// Start a live migration: reserves capacity at \p dest. The VM keeps
  /// running on its source until complete_migration().
  void begin_migration(sim::SimTime t, VmId v, ServerId dest);

  /// Finish an in-flight migration: moves the VM and releases the
  /// reservation. The destination must still be active.
  void complete_migration(sim::SimTime t, VmId v);

  /// Abort an in-flight migration, releasing the destination reservation.
  void cancel_migration(sim::SimTime t, VmId v);

  /// Hibernated -> Booting (the controller schedules boot completion).
  void start_booting(sim::SimTime t, ServerId s);

  /// Booting -> Active.
  void finish_booting(sim::SimTime t, ServerId s);

  /// Active & empty -> Hibernated.
  void hibernate(sim::SimTime t, ServerId s);

  /// Fail-stop crash: any non-failed state -> Failed. Every hosted VM is
  /// unplaced (demand removed, SLA attribution settled) and returned so the
  /// caller can drive re-deployment. The caller must first roll back every
  /// in-flight migration touching the server — a failed server may hold
  /// neither reservations nor migrating VMs.
  std::vector<VmId> fail_server(sim::SimTime t, ServerId s);

  /// Repair a failed server: Failed -> Hibernated (it comes back powered
  /// off and rejoins through the normal wake-up path).
  void repair_server(sim::SimTime t, ServerId s);

  // --- Lifetime switch counters --------------------------------------------

  [[nodiscard]] std::uint64_t total_activations() const { return activations_; }
  [[nodiscard]] std::uint64_t total_hibernations() const { return hibernations_; }
  [[nodiscard]] std::uint64_t total_migrations() const { return migrations_; }
  [[nodiscard]] std::uint64_t total_failures() const { return failures_; }
  [[nodiscard]] std::uint64_t total_repairs() const { return repairs_; }
  [[nodiscard]] std::size_t failed_server_count() const {
    return state_members(ServerState::kFailed).size();
  }

  /// Migrations currently in flight, and the historical maximum — the
  /// paper's "simultaneous migration of many VMs" criticism of centralized
  /// reallocation, quantified.
  [[nodiscard]] std::size_t inflight_migrations() const { return inflight_; }
  [[nodiscard]] std::size_t max_inflight_migrations() const { return max_inflight_; }

  // --- Checkpoint / audit ---------------------------------------------------

  /// Serialize the complete mutable state: every server and VM record, the
  /// per-server contribution caches, the dense state-membership sets (in
  /// membership order — the samplers' draw order is part of the state), and
  /// the incrementally accumulated aggregates — the latter verbatim, never
  /// re-summed, because a different summation order would round differently
  /// and break bit-exact resume.
  void save_state(util::BinWriter& w) const;

  /// Restore a snapshot into a fleet built from the same configuration.
  /// Verifies that server count and per-server capacities match the
  /// snapshot and throws std::runtime_error on any mismatch.
  void load_state(util::BinReader& r);

  /// Conservation-invariant audit: per-server load == sum of hosted VM
  /// demands, every VM placed on exactly the server that lists it, dense
  /// state membership == brute-force scan (as a set, plus position-map
  /// consistency), cached aggregates == recomputation (within \p tolerance
  /// for floating-point accumulators). Returns one human-readable string
  /// per violation; empty means consistent.
  [[nodiscard]] std::vector<std::string> audit_invariants(double tolerance) const;

  /// Rebuild derived caches (state membership sets, per-server power and
  /// overload contributions, aggregate totals) from the ground-truth server
  /// and VM records. Returns the number of cache groups that changed. This
  /// *can* change subsequent behavior relative to an unhealed run — it is
  /// the `heal` audit action's repair step, not a no-op.
  std::size_t heal_caches();

  // --- Monitor dirty journal ------------------------------------------------
  //
  // The batched monitor kernel (core::EcoCloudController) caches a per-server
  // classification of the monitor-relevant state: power state, hosted-VM
  // count, demand, and migrating-out count. DataCenter records which servers
  // changed any of those since the controller last drained, so the cache is
  // refreshed incrementally instead of recomputed fleet-wide per event.
  // Grace/cooldown stamps are deliberately NOT journaled: the controller
  // reads them from the columns at fire time. Once the journal grows past
  // ~1/8 of the fleet it collapses to "everything dirty", which the drain
  // turns into one vectorizable full rebuild.

  /// True when the journal overflowed (or state was bulk-replaced by
  /// load_state/heal_caches) and the whole fleet must be re-classified.
  [[nodiscard]] bool monitor_all_dirty() const { return monitor_all_dirty_; }
  /// Ids marked dirty since the last clear; meaningless while
  /// monitor_all_dirty() is true. Unordered, duplicate-free.
  [[nodiscard]] const std::vector<ServerId>& monitor_dirty_ids() const {
    return monitor_dirty_ids_;
  }
  /// Reset the journal after a drain (controller only).
  void clear_monitor_dirty();

 private:
  /// Refresh cached per-server contributions (power, overloaded VM count)
  /// after server \p s changed; updates overload episode tracking at time t
  /// unless a demand refresh is open (see begin_demand_refresh()).
  void refresh_server(sim::SimTime t, ServerId s);

  /// Open, extend or close server \p s's overload episode from its current
  /// state at time \p t.
  void track_overload_episode(sim::SimTime t, ServerId s);

  /// Move \p s between dense state sets: swap-erase from \p from, append to
  /// \p to, O(1); invalidates the sorted views of both states.
  void move_server_state(ServerId s, ServerState from, ServerState to);

  /// Journal a monitor-relevant change on server \p s (see the public
  /// journal accessors). O(1); collapses to all-dirty past the threshold.
  void mark_monitor_dirty(ServerId s);
  void mark_all_monitor_dirty();

  PowerModel power_model_;
  ServerSoA servers_;
  VmSoA vms_;

  // Cached per-server contributions to the aggregates.
  std::vector<double> power_contrib_w_;
  std::vector<std::size_t> overload_vm_contrib_;
  // Open overload episode per server: start time, min granted; start < 0
  // means "not overloaded".
  std::vector<double> overload_since_;
  std::vector<double> overload_min_granted_;
  // Closed-episode overload seconds per server (open episode added lazily).
  std::vector<double> overload_accum_s_;
  // True between begin_demand_refresh() and end_demand_refresh(). Never
  // set across events, so it is not checkpointed.
  bool in_demand_refresh_ = false;

  // Dense per-state membership (one slot per ServerState enumerator):
  // membership order with swap-erase removal, plus each server's position
  // in its state's set. All "which servers are <state>" reads go through
  // these; the sorted ascending-id view consumed by the legacy (compat)
  // sampler is cached per state and re-derived only after a transition
  // dirtied it.
  std::array<std::vector<ServerId>, 4> state_members_;
  std::vector<std::uint32_t> state_pos_;
  mutable std::array<std::vector<ServerId>, 4> sorted_view_;
  mutable std::array<bool, 4> sorted_dirty_{};

  std::size_t placed_vm_count_ = 0;
  double total_capacity_mhz_ = 0.0;
  double total_demand_mhz_ = 0.0;
  double total_power_w_ = 0.0;
  std::size_t overloaded_vm_count_ = 0;

  sim::SimTime last_time_ = 0.0;
  double energy_j_ = 0.0;
  double overload_vm_seconds_ = 0.0;
  double vm_seconds_ = 0.0;
  std::vector<OverloadEpisode> overload_episodes_;

  std::uint64_t activations_ = 0;
  std::uint64_t hibernations_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t repairs_ = 0;
  std::size_t inflight_ = 0;
  std::size_t max_inflight_ = 0;

  // Monitor dirty journal (not checkpointed: restore marks everything
  // dirty, so the first drain rebuilds the classification from scratch).
  std::vector<std::uint8_t> monitor_dirty_flag_;
  std::vector<ServerId> monitor_dirty_ids_;
  bool monitor_all_dirty_ = true;
};

}  // namespace ecocloud::dc
