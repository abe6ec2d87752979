#include "ecocloud/trace/streaming_traces.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ecocloud/util/validation.hpp"

namespace ecocloud::trace {

StreamingTraces StreamingTraces::generate(const WorkloadModel& model,
                                          std::size_t num_vms,
                                          std::size_t num_steps,
                                          util::Rng& rng) {
  return std::move(generate_partitioned(model, num_vms, num_steps, rng, 1).front());
}

std::vector<StreamingTraces> StreamingTraces::generate_partitioned(
    const WorkloadModel& model, std::size_t num_vms, std::size_t num_steps,
    util::Rng& rng, std::size_t num_banks) {
  util::require(num_banks > 0,
                "StreamingTraces::generate_partitioned: num_banks must be > 0");
  util::require(num_vms > 0,
                "StreamingTraces::generate_partitioned: num_vms must be > 0");
  util::require(num_steps > 0,
                "StreamingTraces::generate_partitioned: num_steps must be > 0");
  const WorkloadConfig& config = model.config();

  std::vector<StreamingTraces> banks;
  banks.reserve(num_banks);
  for (std::size_t k = 0; k < num_banks; ++k) {
    StreamingTraces bank;
    bank.num_steps_ = num_steps;
    bank.sample_period_s_ = config.sample_period_s;
    bank.reference_mhz_ = config.reference_mhz;
    bank.ar1_rho_ = config.ar1_rho;
    bank.dev_base_ = config.dev_base;
    bank.dev_slope_ = config.dev_slope;
    bank.diurnal_ = config.diurnal;
    bank.stride_ = num_banks;
    bank.offset_ = k;
    bank.total_vms_ = num_vms;
    const std::size_t owned =
        num_vms / num_banks + (k < num_vms % num_banks ? 1 : 0);
    bank.averages_.reserve(owned);
    bank.ram_mb_.reserve(owned);
    bank.dev_.reserve(owned);
    bank.values_.reserve(owned);
    bank.cursors_.reserve(owned);
    banks.push_back(std::move(bank));
  }

  const double rho = config.ar1_rho;
  // Computed exactly as WorkloadModel::generate_series computes it, so the
  // lazily drawn samples match the materialized ones bit for bit.
  const double stationary_to_innovation = std::sqrt(1.0 - rho * rho);

  // One pass over the shared stream in TraceSet::generate's exact draw
  // order; only the bank each row's columns land in differs. Row v is
  // stored at slot v / num_banks of bank v % num_banks, so the per-bank
  // append order is the global row order restricted to the bank — slot()
  // stays arithmetic.
  for (std::size_t v = 0; v < num_vms; ++v) {
    StreamingTraces& bank = banks[v % num_banks];
    const double avg = model.sample_average_percent(rng);
    bank.averages_.push_back(avg);
    bank.ram_mb_.push_back(model.sample_ram_mb(rng));

    const double sigma = config.dev_base + config.dev_slope * avg;
    const double innovation_scale = sigma * stationary_to_innovation;

    // Capture this row's cursor at the start of its series block, then
    // advance the shared stream past the block by replaying the exact
    // draws TraceSet::generate would burn (1 stationary + num_steps
    // innovations), keeping row v+1's average/ram/series draws aligned
    // with the materialized generator.
    bank.cursors_.push_back(rng);
    (void)rng.normal(0.0, sigma);
    for (std::size_t k = 0; k < num_steps; ++k) {
      (void)rng.normal(0.0, innovation_scale);
    }

    // Position the lazy state at step 0 from the private cursor: after the
    // stationary draw it is ready to produce the step-1 innovation.
    const double dev0 = bank.cursors_.back().normal(0.0, sigma);
    bank.dev_.push_back(dev0);
    const double base = avg * bank.diurnal_.value(0.0);
    bank.values_.push_back(
        static_cast<float>(std::clamp(base + dev0, 0.0, 100.0)));
  }
  return banks;
}

std::size_t StreamingTraces::slot(std::size_t v) const {
  if (stride_ == 1) return v;
  if (v % stride_ == offset_) return v / stride_;
  const auto it = foreign_.find(v);
  util::require(it != foreign_.end(),
                "StreamingTraces: trace row is resident in another bank — "
                "adopt_row it before driving it from this shard");
  return it->second;
}

bool StreamingTraces::has_row(std::size_t v) const {
  if (v >= total_vms_) return false;
  if (stride_ == 1) return true;
  return v % stride_ == offset_ || foreign_.find(v) != foreign_.end();
}

void StreamingTraces::adopt_row(std::size_t v, const StreamingTraces& home) {
  if (has_row(v)) return;
  util::require(v < total_vms_,
                "StreamingTraces::adopt_row: row index out of range");
  util::require(home.has_row(v),
                "StreamingTraces::adopt_row: source bank does not hold the row");
  util::require(home.current_step_ == current_step_,
                "StreamingTraces::adopt_row: banks sit at different steps — "
                "adoption is only exact at a barrier, where every bank has "
                "advanced to the same sample");
  const std::size_t s = home.slot(v);
  foreign_.emplace(v, averages_.size());
  averages_.push_back(home.averages_[s]);
  ram_mb_.push_back(home.ram_mb_[s]);
  dev_.push_back(home.dev_[s]);
  values_.push_back(home.values_[s]);
  cursors_.push_back(home.cursors_[s]);
}

std::size_t StreamingTraces::step_at(sim::SimTime t) const {
  util::require(t >= 0.0, "StreamingTraces::step_at: negative time");
  return static_cast<std::size_t>(t / sample_period_s_);
}

void StreamingTraces::advance_to(std::size_t step) {
  util::require(step >= current_step_,
                "StreamingTraces::advance_to: cursors cannot rewind");
  util::require(step < num_steps_,
                "StreamingTraces::advance_to: step beyond generated horizon");
  const double rho = ar1_rho_;
  const double stationary_to_innovation = std::sqrt(1.0 - rho * rho);
  const std::size_t n = averages_.size();
  while (current_step_ < step) {
    ++current_step_;
    const sim::SimTime t =
        static_cast<double>(current_step_) * sample_period_s_;
    for (std::size_t v = 0; v < n; ++v) {
      const double avg = averages_[v];
      const double sigma = dev_base_ + dev_slope_ * avg;
      const double innovation_scale = sigma * stationary_to_innovation;
      const double dev =
          rho * dev_[v] + cursors_[v].normal(0.0, innovation_scale);
      dev_[v] = dev;
      const double base = avg * diurnal_.value(t);
      values_[v] = static_cast<float>(std::clamp(base + dev, 0.0, 100.0));
    }
  }
}

}  // namespace ecocloud::trace
