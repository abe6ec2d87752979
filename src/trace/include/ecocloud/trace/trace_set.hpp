#pragma once

/// \file trace_set.hpp
/// \brief A generated (or loaded) set of per-VM CPU utilization traces.
///
/// Mirrors the paper's data: N VMs, each a series of utilization
/// percentages sampled every 5 minutes. The set can be synthesised from a
/// WorkloadModel or round-tripped through CSV (header row, then one row
/// per VM: id, avg, ram_mb, sample_0, sample_1, ...).
///
/// In memory the samples are one step-major matrix (DESIGN.md §14): step k
/// is a contiguous row of num_vms() floats, because the trace driver reads
/// every VM of one step per tick and never one VM across steps.

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "ecocloud/sim/time.hpp"
#include "ecocloud/trace/workload_model.hpp"
#include "ecocloud/util/rng.hpp"

namespace ecocloud::trace {

class TraceSet {
 public:
  /// Synthesize \p num_vms traces of \p num_steps samples each.
  static TraceSet generate(const WorkloadModel& model, std::size_t num_vms,
                           std::size_t num_steps, util::Rng& rng);

  /// Load from CSV previously written by write_csv().
  static TraceSet read_csv(std::istream& in);

  /// Build a set from raw per-VM utilization series (percent). Averages
  /// are computed from the data; RAM footprints default to \p ram_mb.
  /// All series must have the same non-zero length.
  static TraceSet from_series(const std::vector<std::vector<float>>& series,
                              double sample_period_s, double reference_mhz,
                              double ram_mb = 0.0);

  void write_csv(std::ostream& out) const;

  [[nodiscard]] std::size_t num_vms() const { return num_vms_; }
  [[nodiscard]] std::size_t num_steps() const { return num_steps_; }
  [[nodiscard]] sim::SimTime sample_period_s() const { return sample_period_s_; }
  [[nodiscard]] double reference_mhz() const { return reference_mhz_; }

  /// Average utilization (percent) declared for VM \p v.
  [[nodiscard]] double average_percent(std::size_t v) const;

  /// RAM footprint of VM \p v (MB).
  [[nodiscard]] double ram_mb(std::size_t v) const;

  /// The num_vms() samples (percent) of step \p k, indexed by VM. Steps
  /// beyond the series length wrap around (traces repeat), matching how
  /// finite logs are replayed over longer horizons; the modulo is skipped
  /// in the in-range case.
  [[nodiscard]] const float* step_row(std::size_t k) const {
    if (k >= num_steps_) [[unlikely]] k %= num_steps_;
    return samples_.data() + k * num_vms_;
  }

  /// Punctual utilization (percent) of VM \p v at step \p k, wrapping
  /// like step_row(); throws std::out_of_range for v >= num_vms().
  [[nodiscard]] double percent_at(std::size_t v, std::size_t k) const {
    if (v >= num_vms_) [[unlikely]] {
      throw std::out_of_range("TraceSet::percent_at: VM row out of range");
    }
    return static_cast<double>(step_row(k)[v]);
  }

  /// Demand in MHz of VM \p v at step \p k.
  [[nodiscard]] double demand_mhz_at(std::size_t v, std::size_t k) const {
    return percent_at(v, k) / 100.0 * reference_mhz_;
  }

  /// Mean demand (MHz) over all VMs at step \p k.
  [[nodiscard]] double total_demand_mhz_at(std::size_t k) const;

 private:
  TraceSet() = default;

  /// Validate the dimensions (both > 0, product within the vector's
  /// max_size) and size the sample matrix once.
  void allocate(std::size_t num_vms, std::size_t num_steps, const std::string& where);

  std::size_t num_vms_ = 0;
  std::size_t num_steps_ = 0;
  sim::SimTime sample_period_s_ = 300.0;
  double reference_mhz_ = 2000.0;
  std::vector<double> averages_;
  std::vector<double> ram_mb_;
  /// num_steps_ x num_vms_, step-major: sample (v, k) at k * num_vms_ + v.
  std::vector<float> samples_;
};

}  // namespace ecocloud::trace
