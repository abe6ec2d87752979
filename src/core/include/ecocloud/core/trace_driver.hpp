#pragma once

/// \file trace_driver.hpp
/// \brief Replays per-VM demand traces onto DataCenter VMs every sampling
///        period.
///
/// Each mapped VM's demand is refreshed from its trace series at every
/// 5-minute tick (the CoMon sampling period), exactly as the paper's
/// trace-driven simulations do. The demand comes from a trace::TraceSource,
/// which hides whether a materialized matrix or a streaming cursor bank
/// stores it (DESIGN.md §14); both yield bit-identical demands, so the event
/// stream does not depend on the store.

#include <unordered_map>

#include "ecocloud/dc/datacenter.hpp"
#include "ecocloud/sim/simulator.hpp"
#include "ecocloud/trace/trace_source.hpp"
#include "ecocloud/util/binio.hpp"

namespace ecocloud::core {

class TraceDriver {
 public:
  /// Snapshot-stable event kinds (tag_owner::kTraceDriver). Append only.
  enum EventKind : std::uint16_t { kEvTick = 1 };

  /// Drive demands from \p source, which must outlive the driver. The
  /// driver moves the source to the current step (monotonically) as ticks
  /// and VM arrivals query it.
  TraceDriver(sim::Simulator& simulator, dc::DataCenter& datacenter,
              trace::TraceSource& source);

  /// Bind DataCenter VM \p vm to trace row \p trace_index and set its
  /// demand to the current sample.
  void map_vm(std::size_t trace_index, dc::VmId vm);

  /// Stop driving \p vm (on departure).
  void unmap_vm(dc::VmId vm);

  /// Schedule the periodic demand refresh. Call once.
  void start();

  /// The rows this driver replays.
  [[nodiscard]] const trace::TraceSource& source() const { return source_; }

  /// Current VM -> trace-row binding. The sharded auditor walks this to
  /// assert each global trace row is driven by at most one shard.
  [[nodiscard]] const std::unordered_map<dc::VmId, std::size_t>& mapped_vms()
      const {
    return vm_to_trace_;
  }

  /// Checkpoint surface. The VM->trace map is restored with its exact
  /// iteration order preserved: tick() refreshes demands in map order and
  /// the DataCenter accumulates load deltas in that order, so a different
  /// order would change floating-point rounding and break bit-exact resume.
  /// The source carries no snapshot state (trace::TraceSource).
  void save_state(util::BinWriter& w) const;
  void load_state(util::BinReader& r);
  [[nodiscard]] sim::Simulator::Callback rebuild_event(const sim::EventTag& tag);

 private:
  void tick();

  sim::Simulator& sim_;
  dc::DataCenter& dc_;
  trace::TraceSource& source_;
  std::unordered_map<dc::VmId, std::size_t> vm_to_trace_;
  bool started_ = false;
};

}  // namespace ecocloud::core
