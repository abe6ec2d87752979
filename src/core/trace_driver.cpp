#include "ecocloud/core/trace_driver.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "ecocloud/util/snapshot.hpp"
#include "ecocloud/util/phase_profiler.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::core {

TraceDriver::TraceDriver(sim::Simulator& simulator, dc::DataCenter& datacenter,
                         trace::TraceSource& source)
    : sim_(simulator), dc_(datacenter), source_(source) {}

void TraceDriver::map_vm(std::size_t trace_index, dc::VmId vm) {
  util::require(trace_index < source_.num_vms(),
                "TraceDriver::map_vm: bad trace index");
  vm_to_trace_[vm] = trace_index;
  // Ticks and same-tick arrivals land on the same step in any event order.
  source_.advance_to(source_.step_at(sim_.now()));
  dc_.set_vm_demand(sim_.now(), vm, source_.demand_mhz(trace_index));
}

void TraceDriver::unmap_vm(dc::VmId vm) { vm_to_trace_.erase(vm); }

void TraceDriver::start() {
  util::ensure(!started_, "TraceDriver::start called twice");
  started_ = true;
  const sim::SimTime period = source_.sample_period_s();
  sim_.schedule_periodic(period,
                         sim::EventTag{sim::tag_owner::kTraceDriver, kEvTick, 0, 0},
                         [this] { tick(); }, period);
}

void TraceDriver::save_state(util::BinWriter& w) const {
  w.boolean(started_);
  util::save_unordered(w, vm_to_trace_,
                       [](util::BinWriter& out, dc::VmId vm, std::size_t trace_index) {
                         out.u64(vm);
                         out.u64(trace_index);
                       });
}

void TraceDriver::load_state(util::BinReader& r) {
  started_ = r.boolean();
  util::load_unordered(r, vm_to_trace_, [this](util::BinReader& in) {
    const auto vm = static_cast<dc::VmId>(in.u64());
    const auto trace_index = static_cast<std::size_t>(in.u64());
    util::require(trace_index < source_.num_vms(),
                  "TraceDriver: snapshot trace index out of range");
    return std::make_pair(vm, trace_index);
  });
}

sim::Simulator::Callback TraceDriver::rebuild_event(const sim::EventTag& tag) {
  if (tag.kind == kEvTick) return [this] { tick(); };
  throw std::runtime_error("TraceDriver: snapshot contains an unknown event kind " +
                           std::to_string(tag.kind));
}

void TraceDriver::tick() {
  util::ScopedPhase profile(util::Phase::kTraceAdvance);
  const sim::SimTime now = sim_.now();
  source_.advance_to(source_.step_at(now));
  dc_.begin_demand_refresh();
  source_.visit_rows([&](const auto& rows) {
    for (const auto& [vm, trace_index] : vm_to_trace_) {
      dc_.set_vm_demand(now, vm, rows.demand_mhz(trace_index));
    }
  });
  dc_.end_demand_refresh(now);
}

}  // namespace ecocloud::core
