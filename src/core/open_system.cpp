#include "ecocloud/core/open_system.hpp"

#include <stdexcept>
#include <string>

#include "ecocloud/util/phase_profiler.hpp"
#include "ecocloud/util/snapshot.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::core {

OpenSystemDriver::OpenSystemDriver(sim::Simulator& simulator,
                                   dc::DataCenter& datacenter,
                                   EcoCloudController& controller,
                                   TraceDriver& trace_driver, util::Rng rng,
                                   trace::RateFn lambda, double lambda_max, double nu)
    : sim_(simulator),
      dc_(datacenter),
      controller_(controller),
      trace_driver_(trace_driver),
      rng_(rng),
      arrivals_(std::move(lambda), lambda_max),
      nu_(nu) {
  util::require(nu > 0.0, "OpenSystemDriver: nu must be > 0");
}

dc::VmId OpenSystemDriver::spawn_vm() {
  const trace::TraceSource& traces = trace_driver_.source();
  const std::size_t trace_index = rng_.index(traces.num_vms());
  const dc::VmId vm = dc_.create_vm(0.0, traces.ram_mb(trace_index));
  trace_driver_.map_vm(trace_index, vm);
  return vm;
}

void OpenSystemDriver::schedule_departure(dc::VmId vm) {
  const sim::SimTime lifetime = trace::exponential_lifetime(nu_, rng_);
  sim_.schedule_after(lifetime,
                      sim::EventTag{sim::tag_owner::kOpenSystem, kEvDeparture, vm, 0},
                      [this, vm] { on_departure(vm); });
}

void OpenSystemDriver::on_departure(dc::VmId vm) {
  util::ScopedPhase profile(util::Phase::kVmLifecycle);
  controller_.depart_vm(vm);
  trace_driver_.unmap_vm(vm);
  if (estimator_) estimator_->record_departure(sim_.now(), population_);
  --population_;
  ++total_departures_;
}

void OpenSystemDriver::seed_initial_population(std::size_t count) {
  util::ScopedPhase profile(util::Phase::kVmLifecycle);
  const sim::SimTime now = sim_.now();
  // Borrow the live index: place_vm never transitions server state, so the
  // reference stays valid for the whole seeding loop.
  const std::vector<dc::ServerId>& active =
      dc_.servers_with(dc::ServerState::kActive);
  util::require(!active.empty(),
                "OpenSystemDriver::seed_initial_population: no active servers");
  for (std::size_t i = 0; i < count; ++i) {
    const dc::VmId vm = spawn_vm();
    dc_.place_vm(now, vm, active[rng_.index(active.size())]);
    ++population_;
    schedule_departure(vm);
  }
}

void OpenSystemDriver::start() {
  util::ensure(!started_, "OpenSystemDriver::start called twice");
  started_ = true;
  schedule_next_arrival();
}

void OpenSystemDriver::schedule_next_arrival() {
  const sim::SimTime next = arrivals_.next_after(sim_.now(), rng_);
  sim_.schedule_at(next, sim::EventTag{sim::tag_owner::kOpenSystem, kEvArrival, 0, 0},
                   [this] { on_arrival(); });
}

void OpenSystemDriver::on_arrival() {
  util::ScopedPhase profile(util::Phase::kVmLifecycle);
  const dc::VmId vm = spawn_vm();
  ++total_arrivals_;
  if (estimator_) estimator_->record_arrival(sim_.now());
  if (controller_.deploy_vm(vm)) {
    ++population_;
    schedule_departure(vm);
  } else {
    // Data center saturated: the request is rejected (VM never enters).
    ++total_rejections_;
    trace_driver_.unmap_vm(vm);
  }
  schedule_next_arrival();
}

void OpenSystemDriver::save_state(util::BinWriter& w) const {
  util::save_rng(w, rng_);
  w.boolean(started_);
  w.u64(population_);
  w.u64(total_arrivals_);
  w.u64(total_departures_);
  w.u64(total_rejections_);
}

void OpenSystemDriver::load_state(util::BinReader& r) {
  util::load_rng(r, rng_);
  started_ = r.boolean();
  population_ = static_cast<std::size_t>(r.u64());
  total_arrivals_ = r.u64();
  total_departures_ = r.u64();
  total_rejections_ = r.u64();
}

sim::Simulator::Callback OpenSystemDriver::rebuild_event(const sim::EventTag& tag) {
  switch (tag.kind) {
    case kEvArrival:
      return [this] { on_arrival(); };
    case kEvDeparture: {
      const auto vm = static_cast<dc::VmId>(tag.a);
      return [this, vm] { on_departure(vm); };
    }
    default:
      throw std::runtime_error(
          "OpenSystemDriver: snapshot contains an unknown event kind " +
          std::to_string(tag.kind));
  }
}

}  // namespace ecocloud::core
