#include "ecocloud/trace/streaming_traces.hpp"

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
    bank.config_ = config;
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

  const Ar1Demand ar1(config);
  const double g0 = config.diurnal.value(0.0);

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

    // Capture this row's cursor at the start of its series block, then
    // advance the shared stream past the block by replaying the draws
    // fill_series makes (1 stationary + num_steps innovations), keeping
    // row v+1's average/ram/series draws aligned with the materialized
    // generator.
    bank.cursors_.push_back(rng);
    double burn = ar1.first_deviation(avg, rng);
    for (std::size_t k = 0; k < num_steps; ++k) {
      burn = ar1.next_deviation(burn, avg, rng);
    }

    // Position the lazy state at step 0 from the private cursor: after the
    // stationary draw it is ready to produce the step-1 innovation.
    const double dev0 = ar1.first_deviation(avg, bank.cursors_.back());
    bank.dev_.push_back(dev0);
    bank.values_.push_back(Ar1Demand::percent(avg, g0, dev0));
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

void StreamingTraces::advance_to(std::size_t step) {
  util::require(step >= current_step_,
                "StreamingTraces::advance_to: cursors cannot rewind");
  util::require(step < num_steps_,
                "StreamingTraces::advance_to: step beyond generated horizon");
  const Ar1Demand ar1(config_);
  const std::size_t n = averages_.size();
  while (current_step_ < step) {
    ++current_step_;
    // g depends only on the step: one std::sin per step, not per row.
    const sim::SimTime t =
        static_cast<double>(current_step_) * config_.sample_period_s;
    const double g = config_.diurnal.value(t);
    for (std::size_t v = 0; v < n; ++v) {
      const double avg = averages_[v];
      const double dev = ar1.next_deviation(dev_[v], avg, cursors_[v]);
      dev_[v] = dev;
      values_[v] = Ar1Demand::percent(avg, g, dev);
    }
  }
}

}  // namespace ecocloud::trace
