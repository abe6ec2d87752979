#include "ecocloud/trace/trace_set.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "ecocloud/util/csv.hpp"
#include "ecocloud/util/string_util.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::trace {

namespace {

// Checks shared by the constructors of outside data. The period and the
// reference divide and scale every demand; a sample is a percentage (NaN
// fails the range test too).
void require_timebase(double period_s, double reference_mhz, const std::string& where) {
  util::require(std::isfinite(period_s) && period_s > 0.0 &&
                    std::isfinite(reference_mhz) && reference_mhz > 0.0,
                where + ": period and reference must be finite and > 0");
}

double require_percent(double x, const std::string& where) {
  util::require(x >= 0.0 && x <= 100.0, where + ": values must be in [0,100]");
  return x;
}

// VMs per generation write block: 16 floats fill one 64-byte cache line of
// a step row, so the transposing write of a block touches one line per step.
constexpr std::size_t kWriteBlock = 16;

}  // namespace

void TraceSet::allocate(std::size_t num_vms, std::size_t num_steps,
                        const std::string& where) {
  util::require(num_vms > 0 && num_steps > 0, where + ": VM and step counts must be > 0");
  util::require(num_steps <= samples_.max_size() / num_vms,
                where + ": VM x step count overflows the sample matrix");
  num_vms_ = num_vms;
  num_steps_ = num_steps;
  averages_.reserve(num_vms);
  ram_mb_.reserve(num_vms);
  samples_.resize(num_vms * num_steps);
}

TraceSet TraceSet::generate(const WorkloadModel& model, std::size_t num_vms,
                            std::size_t num_steps, util::Rng& rng) {
  TraceSet set;
  set.allocate(num_vms, num_steps, "TraceSet::generate");
  set.sample_period_s_ = model.config().sample_period_s;
  set.reference_mhz_ = model.config().reference_mhz;
  const std::vector<double> g = model.diurnal_factors(num_steps);
  // Each VM's series is drawn whole, in VM order, into a small VM-major
  // block (the shared RNG sees exactly the per-VM draw order), then the
  // block is transposed into the step-major matrix.
  std::vector<float> block(kWriteBlock * num_steps);
  for (std::size_t first = 0; first < num_vms; first += kWriteBlock) {
    const std::size_t width = std::min(kWriteBlock, num_vms - first);
    for (std::size_t b = 0; b < width; ++b) {
      const double avg = model.sample_average_percent(rng);
      set.averages_.push_back(avg);
      set.ram_mb_.push_back(model.sample_ram_mb(rng));
      model.fill_series(rng, avg, g, block.data() + b * num_steps);
    }
    for (std::size_t k = 0; k < num_steps; ++k) {
      float* row = set.samples_.data() + k * num_vms + first;
      for (std::size_t b = 0; b < width; ++b) row[b] = block[b * num_steps + k];
    }
  }
  return set;
}

TraceSet TraceSet::from_series(const std::vector<std::vector<float>>& series,
                               double sample_period_s, double reference_mhz,
                               double ram_mb) {
  const std::string where = "TraceSet::from_series";
  util::require(!series.empty(), "TraceSet::from_series: no series");
  require_timebase(sample_period_s, reference_mhz, where);
  const std::size_t steps = series.front().size();
  util::require(steps > 0, "TraceSet::from_series: empty series");
  for (const auto& s : series) {
    util::require(s.size() == steps, "TraceSet::from_series: ragged series");
  }
  TraceSet set;
  set.allocate(series.size(), steps, where);
  set.sample_period_s_ = sample_period_s;
  set.reference_mhz_ = reference_mhz;
  for (std::size_t v = 0; v < series.size(); ++v) {
    double total = 0.0;
    for (std::size_t k = 0; k < steps; ++k) {
      const float x = series[v][k];
      total += require_percent(static_cast<double>(x), where);
      set.samples_[k * set.num_vms_ + v] = x;
    }
    set.averages_.push_back(total / static_cast<double>(steps));
    set.ram_mb_.push_back(ram_mb);
  }
  return set;
}

double TraceSet::average_percent(std::size_t v) const { return averages_.at(v); }

double TraceSet::ram_mb(std::size_t v) const { return ram_mb_.at(v); }

double TraceSet::total_demand_mhz_at(std::size_t k) const {
  double acc = 0.0;
  for (std::size_t v = 0; v < num_vms_; ++v) acc += demand_mhz_at(v, k);
  return acc;
}

void TraceSet::write_csv(std::ostream& out) const {
  util::CsvWriter writer(out, 6);
  writer.comment("ecocloud trace set");
  writer.field(static_cast<long long>(num_vms()))
      .field(static_cast<long long>(num_steps_))
      .field(sample_period_s_)
      .field(reference_mhz_);
  writer.end_row();
  for (std::size_t v = 0; v < num_vms_; ++v) {
    writer.field(static_cast<long long>(v)).field(averages_[v]).field(ram_mb_[v]);
    for (std::size_t k = 0; k < num_steps_; ++k) writer.field(percent_at(v, k));
    writer.end_row();
  }
}

TraceSet TraceSet::read_csv(std::istream& in) {
  const std::string where = "TraceSet::read_csv";
  const auto rows = util::read_csv(in);
  util::require(!rows.empty(), "TraceSet::read_csv: empty input");
  const auto& head = rows.front();
  util::require(head.size() == 4, "TraceSet::read_csv: malformed header row");
  // Counts are checked before any arithmetic: a negative one would wrap.
  const long long num_vms = util::parse_int(head[0]);
  const long long num_steps = util::parse_int(head[1]);
  util::require(num_vms > 0 && num_steps > 0,
                "TraceSet::read_csv: VM and step counts must be > 0");
  // The header sizes one allocation of num_vms x num_steps samples, so it
  // is held against the data first: a short file must not reserve memory
  // for the counts it merely claims.
  util::require(rows.size() - 1 == static_cast<std::size_t>(num_vms),
                "TraceSet::read_csv: row count mismatch");
  util::require(rows[1].size() >= 3 &&
                    rows[1].size() - 3 == static_cast<std::size_t>(num_steps),
                "TraceSet::read_csv: sample count mismatch");
  TraceSet set;
  set.sample_period_s_ = util::parse_double(head[2]);
  set.reference_mhz_ = util::parse_double(head[3]);
  require_timebase(set.sample_period_s_, set.reference_mhz_, where);
  set.allocate(static_cast<std::size_t>(num_vms), static_cast<std::size_t>(num_steps),
               where);
  for (std::size_t v = 0; v < set.num_vms_; ++v) {
    const auto& row = rows[v + 1];
    util::require(row.size() == 3 + set.num_steps_,
                  "TraceSet::read_csv: sample count mismatch");
    set.averages_.push_back(require_percent(util::parse_double(row[1]), where));
    const double ram_mb = util::parse_double(row[2]);
    util::require(std::isfinite(ram_mb) && ram_mb >= 0.0,
                  "TraceSet::read_csv: RAM must be finite and >= 0");
    set.ram_mb_.push_back(ram_mb);
    for (std::size_t k = 0; k < set.num_steps_; ++k) {
      set.samples_[k * set.num_vms_ + v] =
          static_cast<float>(require_percent(util::parse_double(row[3 + k]), where));
    }
  }
  return set;
}

}  // namespace ecocloud::trace
