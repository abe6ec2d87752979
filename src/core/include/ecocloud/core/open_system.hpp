#pragma once

/// \file open_system.hpp
/// \brief VM arrival/departure driver for the fluid-model experiment.
///
/// Reproduces the paper's Sec. IV setup: VMs arrive following a
/// non-homogeneous Poisson process lambda(t), each drawing its demand
/// profile from a random trace row, and departs after an exponential
/// lifetime with per-VM rate nu. Arrivals and departures are logged into
/// an optional RateEstimator, from which the ODE benches recover the
/// lambda(t)/mu(t) inputs of Eqs. (5)/(11) — the paper's "computed from
/// the traces" step.

#include <optional>

#include "ecocloud/core/controller.hpp"
#include "ecocloud/core/trace_driver.hpp"
#include "ecocloud/trace/arrivals.hpp"
#include "ecocloud/trace/rate_estimator.hpp"

namespace ecocloud::core {

class OpenSystemDriver {
 public:
  /// Snapshot-stable event kinds (tag_owner::kOpenSystem). Append only.
  /// kEvDeparture carries the departing VM id in `a`.
  enum EventKind : std::uint16_t { kEvArrival = 1, kEvDeparture = 2 };

  /// \param lambda      arrival rate function (VMs/second).
  /// \param lambda_max  finite bound on lambda (thinning envelope).
  /// \param nu          per-VM departure rate (1/second, > 0).
  OpenSystemDriver(sim::Simulator& simulator, dc::DataCenter& datacenter,
                   EcoCloudController& controller, TraceDriver& trace_driver,
                   util::Rng rng,
                   trace::RateFn lambda, double lambda_max, double nu);

  /// Optionally log events for later rate estimation.
  void set_rate_estimator(trace::RateEstimator* estimator) { estimator_ = estimator; }

  /// Inject \p count VMs right now (initial population), placing each on a
  /// uniformly random *active* server — the paper's "non consolidated"
  /// starting condition. Departures are scheduled for them as usual.
  void seed_initial_population(std::size_t count);

  /// Begin generating arrivals. Call once.
  void start();

  [[nodiscard]] std::size_t population() const { return population_; }
  [[nodiscard]] std::uint64_t total_arrivals() const { return total_arrivals_; }
  [[nodiscard]] std::uint64_t total_departures() const { return total_departures_; }
  /// Arrivals turned away because the data center was saturated.
  [[nodiscard]] std::uint64_t total_rejections() const { return total_rejections_; }

  /// Checkpoint surface: RNG stream, population and counters. Pending
  /// arrival/departure events are restored through the tagged calendar.
  void save_state(util::BinWriter& w) const;
  void load_state(util::BinReader& r);
  [[nodiscard]] sim::Simulator::Callback rebuild_event(const sim::EventTag& tag);

 private:
  void schedule_next_arrival();
  void on_arrival();
  void on_departure(dc::VmId vm);
  dc::VmId spawn_vm();
  void schedule_departure(dc::VmId vm);

  sim::Simulator& sim_;
  dc::DataCenter& dc_;
  EcoCloudController& controller_;
  TraceDriver& trace_driver_;
  util::Rng rng_;
  trace::PoissonArrivals arrivals_;
  double nu_;
  trace::RateEstimator* estimator_ = nullptr;

  std::size_t population_ = 0;
  std::uint64_t total_arrivals_ = 0;
  std::uint64_t total_departures_ = 0;
  std::uint64_t total_rejections_ = 0;
  bool started_ = false;
};

}  // namespace ecocloud::core
