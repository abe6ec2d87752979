#pragma once

/// \file trace_source.hpp
/// \brief The per-VM demand rows a simulation replays, whatever stores them:
/// a TraceSet shared read-only by any number of sources (the current step
/// lives in each source; steps past the end wrap around), or an owned
/// StreamingTraces cursor bank (forward only). This is the only code that
/// knows which store is live (DESIGN.md §14).

#include <cstddef>
#include <memory>
#include <utility>
#include <variant>

#include "ecocloud/trace/streaming_traces.hpp"
#include "ecocloud/trace/trace_set.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::trace {

class TraceSource {
 public:
  explicit TraceSource(std::shared_ptr<const TraceSet> matrix)
      : rows_(Matrix{std::move(matrix)}) {
    Matrix& m = std::get<Matrix>(rows_);
    util::require(m.set != nullptr, "TraceSource: null trace matrix");
    m.advance_to(0);
  }
  explicit TraceSource(StreamingTraces bank) : rows_(Bank{std::move(bank)}) {}

  /// Global row count (a partitioned bank answers for the whole row space).
  [[nodiscard]] std::size_t num_vms() const {
    return std::visit([](const auto& r) { return r.store().num_vms(); }, rows_);
  }
  [[nodiscard]] sim::SimTime sample_period_s() const {
    return std::visit([](const auto& r) { return r.store().sample_period_s(); }, rows_);
  }
  /// RAM footprint (MB) of row \p v.
  [[nodiscard]] double ram_mb(std::size_t v) const {
    return std::visit([v](const auto& r) { return r.store().ram_mb(v); }, rows_);
  }
  /// Step index active at simulation time \p t (floor(t / period)).
  [[nodiscard]] std::size_t step_at(sim::SimTime t) const {
    util::require(t >= 0.0, "TraceSource::step_at: negative time");
    return static_cast<std::size_t>(t / sample_period_s());
  }
  /// Make \p step current. A bank throws on a rewind or past its horizon.
  /// No snapshot state: a restored run fast-forwards from step 0.
  void advance_to(std::size_t step) {
    std::visit([step](auto& r) { r.advance_to(step); }, rows_);
  }
  /// Demand (MHz) of row \p v at the current step.
  [[nodiscard]] double demand_mhz(std::size_t v) const {
    util::require(v < num_vms(), "TraceSource::demand_mhz: row out of range");
    return std::visit([v](const auto& r) { return r.demand_mhz(v); }, rows_);
  }

  /// Make row \p v drivable here by copying it from \p home, a sibling
  /// source at the same step. No-op when the row is already resident, as
  /// every row of a matrix is. Draws no randomness.
  void adopt_row(std::size_t v, const TraceSource& home) {
    auto* bank = std::get_if<Bank>(&rows_);
    if (bank == nullptr) return;
    const auto* home_bank = std::get_if<Bank>(&home.rows_);
    util::require(home_bank != nullptr,
                  "TraceSource::adopt_row: a cursor bank adopts rows only "
                  "from another cursor bank");
    bank->cursors.adopt_row(v, home_bank->cursors);
  }

  [[nodiscard]] bool is_streaming() const { return std::holds_alternative<Bank>(rows_); }

  /// Call \p fn once with a reader of the current step whose demand_mhz(v)
  /// equals this->demand_mhz(v) for every v < num_vms(), unchecked: the
  /// store is dispatched once per sweep, not once per row, and a matrix
  /// reader indexes the current step's row directly.
  template <class Fn>
  void visit_rows(Fn&& fn) const {
    std::visit([&fn](const auto& r) { fn(r); }, rows_);
  }

 private:
  /// The current step lives here as its resolved row (wrap-around
  /// applied once per advance), so a per-VM read is one indexed load.
  struct Matrix {
    std::shared_ptr<const TraceSet> set;
    const float* row = nullptr;
    const TraceSet& store() const { return *set; }
    void advance_to(std::size_t k) { row = set->step_row(k); }
    double demand_mhz(std::size_t v) const {
      return static_cast<double>(row[v]) / 100.0 * set->reference_mhz();
    }
  };
  struct Bank {
    StreamingTraces cursors;
    const StreamingTraces& store() const { return cursors; }
    void advance_to(std::size_t k) { cursors.advance_to(k); }
    double demand_mhz(std::size_t v) const { return cursors.demand_mhz_current(v); }
  };

  std::variant<Matrix, Bank> rows_;
};

}  // namespace ecocloud::trace
