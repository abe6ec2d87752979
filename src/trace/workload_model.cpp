#include "ecocloud/trace/workload_model.hpp"

#include "ecocloud/util/math.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::trace {

WorkloadModel::WorkloadModel(WorkloadConfig config) : config_(config) {
  util::require(config_.reference_mhz > 0.0, "WorkloadModel: reference_mhz must be > 0");
  util::require(config_.sample_period_s > 0.0,
                "WorkloadModel: sample_period_s must be > 0");
  util::require(config_.ar1_rho >= 0.0 && config_.ar1_rho < 1.0,
                "WorkloadModel: ar1_rho must be in [0,1)");
  util::require(config_.dev_base >= 0.0 && config_.dev_slope >= 0.0,
                "WorkloadModel: deviation scale must be non-negative");
  util::require(config_.ram_min_mb >= 0.0 && config_.ram_max_mb >= config_.ram_min_mb,
                "WorkloadModel: invalid RAM range");
}

const std::vector<double>& WorkloadModel::average_bin_weights() {
  // 5%-wide bins over [0, 100): calibrated by eye against the paper's
  // Fig. 4 (decreasing from ~0.2 below 10%, long thin tail to 100%).
  static const std::vector<double> kWeights = {
      0.220, 0.250, 0.160, 0.100, 0.070,   //  0-25 %
      0.050, 0.035, 0.025, 0.020, 0.015,   // 25-50 %
      0.012, 0.009, 0.007, 0.005, 0.004,   // 50-75 %
      0.003, 0.002, 0.002, 0.0015, 0.0005  // 75-100 %
  };
  return kWeights;
}

double WorkloadModel::sample_average_percent(util::Rng& rng) const {
  const auto& weights = average_bin_weights();
  const std::size_t bin = rng.discrete(weights);
  const double width = 100.0 / static_cast<double>(weights.size());
  return rng.uniform(static_cast<double>(bin) * width,
                     static_cast<double>(bin + 1) * width);
}

double WorkloadModel::sample_ram_mb(util::Rng& rng) const {
  return rng.uniform(config_.ram_min_mb, config_.ram_max_mb);
}

double WorkloadModel::expected_average_percent() {
  const auto& weights = average_bin_weights();
  const double width = 100.0 / static_cast<double>(weights.size());
  double total = 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    total += weights[i];
    acc += weights[i] * (static_cast<double>(i) + 0.5) * width;
  }
  return acc / total;
}

std::vector<float> WorkloadModel::generate_series(util::Rng& rng, double avg_percent,
                                                  std::size_t num_steps) const {
  std::vector<float> series(num_steps);
  fill_series(rng, avg_percent, diurnal_factors(num_steps), series.data());
  return series;
}

std::vector<double> WorkloadModel::diurnal_factors(std::size_t num_steps) const {
  std::vector<double> g(num_steps);
  for (std::size_t k = 0; k < num_steps; ++k) {
    const sim::SimTime t = static_cast<double>(k) * config_.sample_period_s;
    g[k] = config_.diurnal.value(t);
  }
  return g;
}

void WorkloadModel::fill_series(util::Rng& rng, double avg_percent,
                                const std::vector<double>& g, float* out) const {
  util::require(avg_percent >= 0.0 && avg_percent <= 100.0,
                "WorkloadModel::fill_series: avg must be in [0,100]");
  const Ar1Demand ar1(config_);
  double dev = ar1.first_deviation(avg_percent, rng);
  for (std::size_t k = 0; k < g.size(); ++k) {
    out[k] = Ar1Demand::percent(avg_percent, g[k], dev);
    dev = ar1.next_deviation(dev, avg_percent, rng);
  }
}

}  // namespace ecocloud::trace
