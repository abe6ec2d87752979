#pragma once

/// \file workload_model.hpp
/// \brief Statistical model of PlanetLab-like VM CPU demand.
///
/// The paper's traces (CoMon/PlanetLab, 6,000 VMs, 5-minute samples) are
/// characterised by two published marginals:
///  * Fig. 4 — distribution of each VM's *average* CPU utilization
///    (percent of a reference capacity): mass concentrated below 20%, a
///    long thin tail up to 100%.
///  * Fig. 5 — distribution of punctual-minus-average deviations: sharply
///    peaked at 0, with about 94% of deviations within +-10 points.
///
/// WorkloadModel reproduces both: per-VM averages are drawn from a bin
/// table calibrated to Fig. 4, and the punctual demand follows
///   v(t) = clamp(avg * g(t) + d(t), 0, 100)
/// where g is the shared diurnal factor and d an AR(1) noise whose scale
/// grows with the VM's average (big VMs fluctuate more, as in the traces).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "ecocloud/sim/time.hpp"
#include "ecocloud/trace/diurnal.hpp"
#include "ecocloud/util/rng.hpp"

namespace ecocloud::trace {

/// Tunable parameters of the synthetic workload.
struct WorkloadConfig {
  /// CPU capacity, in MHz, that utilization percentages refer to. The
  /// PlanetLab convention is "percent of the hosting machine"; we pin the
  /// reference to one 2 GHz core so demands are portable across the
  /// heterogeneous fleet (DESIGN.md Sec. 5).
  double reference_mhz = 2000.0;

  /// Trace sampling period (paper: 5 minutes).
  sim::SimTime sample_period_s = 300.0;

  /// Diurnal modulation.
  DiurnalPattern diurnal{};

  /// AR(1) deviation: correlation between consecutive 5-min samples.
  double ar1_rho = 0.7;

  /// Deviation scale: stddev (percent points) = dev_base + dev_slope * avg.
  double dev_base = 1.0;
  double dev_slope = 0.15;

  /// RAM footprint per VM (MB), uniform in [ram_min_mb, ram_max_mb]
  /// (exercised by the multi-resource extension only).
  double ram_min_mb = 512.0;
  double ram_max_mb = 4096.0;
};

/// The sample arithmetic, written once for every generator (the
/// materialized fill_series and the lazy StreamingTraces cursors), so
/// equal draws give bit-identical samples. With sigma = dev_base +
/// dev_slope * avg, the deviation starts from its stationary law
/// N(0, sigma), so a series has no warm-up transient, steps as
/// dev' = rho * dev + N(0, sigma * sqrt(1 - rho^2)), and the sample is
/// clamp(avg * g(t) + dev, 0, 100).
class Ar1Demand {
 public:
  explicit Ar1Demand(const WorkloadConfig& config)
      : rho_(config.ar1_rho),
        dev_base_(config.dev_base),
        dev_slope_(config.dev_slope),
        stationary_to_innovation_(std::sqrt(1.0 - rho_ * rho_)) {}

  [[nodiscard]] double first_deviation(double avg, util::Rng& rng) const {
    return rng.normal(0.0, sigma(avg));
  }
  [[nodiscard]] double next_deviation(double dev, double avg, util::Rng& rng) const {
    return rho_ * dev + rng.normal(0.0, sigma(avg) * stationary_to_innovation_);
  }
  /// Utilization (percent) for diurnal factor \p g.
  [[nodiscard]] static float percent(double avg, double g, double dev) {
    return static_cast<float>(std::clamp(avg * g + dev, 0.0, 100.0));
  }

 private:
  [[nodiscard]] double sigma(double avg) const { return dev_base_ + dev_slope_ * avg; }

  double rho_;
  double dev_base_;
  double dev_slope_;
  double stationary_to_innovation_;  ///< sqrt(1 - rho^2), hoisted per object
};

/// Samples per-VM averages and generates punctual utilization series.
class WorkloadModel {
 public:
  explicit WorkloadModel(WorkloadConfig config = WorkloadConfig{});

  [[nodiscard]] const WorkloadConfig& config() const { return config_; }

  /// The Fig.-4 calibration table: relative weight of each 5%-wide average
  /// utilization bin over [0, 100).
  [[nodiscard]] static const std::vector<double>& average_bin_weights();

  /// Draw one VM average utilization (percent of reference capacity).
  [[nodiscard]] double sample_average_percent(util::Rng& rng) const;

  /// Draw a RAM footprint (MB).
  [[nodiscard]] double sample_ram_mb(util::Rng& rng) const;

  /// Expected mean of the average-utilization distribution (percent),
  /// computed from the bin table (useful for sizing experiments).
  [[nodiscard]] static double expected_average_percent();

  /// Generate a punctual utilization series (percent) of \p num_steps
  /// samples from t = 0 for a VM with the given average (Ar1Demand): one
  /// stationary draw, then one innovation draw per sample.
  [[nodiscard]] std::vector<float> generate_series(util::Rng& rng,
                                                   double avg_percent,
                                                   std::size_t num_steps) const;

  /// The diurnal factor g(t) at each sample instant t = k *
  /// sample_period_s, k < \p num_steps. g depends only on the step, so a
  /// fleet generator computes this table once and shares it across VMs.
  [[nodiscard]] std::vector<double> diurnal_factors(std::size_t num_steps) const;

  /// The series generator behind generate_series: writes g.size()
  /// samples to \p out with the same draws, given the step table \p g
  /// from diurnal_factors().
  void fill_series(util::Rng& rng, double avg_percent, const std::vector<double>& g,
                   float* out) const;

  /// Convert a utilization percentage to MHz demand under this model.
  [[nodiscard]] double percent_to_mhz(double percent) const {
    return percent / 100.0 * config_.reference_mhz;
  }

 private:
  WorkloadConfig config_;
};

}  // namespace ecocloud::trace
