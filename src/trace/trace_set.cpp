#include "ecocloud/trace/trace_set.hpp"

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

}  // namespace

TraceSet TraceSet::generate(const WorkloadModel& model, std::size_t num_vms,
                            std::size_t num_steps, util::Rng& rng) {
  util::require(num_vms > 0, "TraceSet::generate: num_vms must be > 0");
  util::require(num_steps > 0, "TraceSet::generate: num_steps must be > 0");
  TraceSet set;
  set.num_steps_ = num_steps;
  set.sample_period_s_ = model.config().sample_period_s;
  set.reference_mhz_ = model.config().reference_mhz;
  set.averages_.reserve(num_vms);
  set.ram_mb_.reserve(num_vms);
  set.series_.reserve(num_vms);
  for (std::size_t v = 0; v < num_vms; ++v) {
    const double avg = model.sample_average_percent(rng);
    set.averages_.push_back(avg);
    set.ram_mb_.push_back(model.sample_ram_mb(rng));
    set.series_.push_back(model.generate_series(rng, avg, num_steps));
  }
  return set;
}

TraceSet TraceSet::from_series(std::vector<std::vector<float>> series,
                               double sample_period_s, double reference_mhz,
                               double ram_mb) {
  const std::string where = "TraceSet::from_series";
  util::require(!series.empty(), "TraceSet::from_series: no series");
  require_timebase(sample_period_s, reference_mhz, where);
  const std::size_t steps = series.front().size();
  util::require(steps > 0, "TraceSet::from_series: empty series");
  TraceSet set;
  set.num_steps_ = steps;
  set.sample_period_s_ = sample_period_s;
  set.reference_mhz_ = reference_mhz;
  for (auto& s : series) {
    util::require(s.size() == steps, "TraceSet::from_series: ragged series");
    double total = 0.0;
    for (float x : s) total += require_percent(static_cast<double>(x), where);
    set.averages_.push_back(total / static_cast<double>(steps));
    set.ram_mb_.push_back(ram_mb);
    set.series_.push_back(std::move(s));
  }
  return set;
}

double TraceSet::average_percent(std::size_t v) const { return averages_.at(v); }

double TraceSet::ram_mb(std::size_t v) const { return ram_mb_.at(v); }

double TraceSet::total_demand_mhz_at(std::size_t k) const {
  double acc = 0.0;
  for (std::size_t v = 0; v < series_.size(); ++v) acc += demand_mhz_at(v, k);
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
  for (std::size_t v = 0; v < series_.size(); ++v) {
    writer.field(static_cast<long long>(v)).field(averages_[v]).field(ram_mb_[v]);
    for (float x : series_[v]) writer.field(static_cast<double>(x));
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
  TraceSet set;
  set.num_steps_ = static_cast<std::size_t>(num_steps);
  set.sample_period_s_ = util::parse_double(head[2]);
  set.reference_mhz_ = util::parse_double(head[3]);
  require_timebase(set.sample_period_s_, set.reference_mhz_, where);
  util::require(rows.size() - 1 == static_cast<std::size_t>(num_vms),
                "TraceSet::read_csv: row count mismatch");
  for (std::size_t v = 1; v < rows.size(); ++v) {
    const auto& row = rows[v];
    util::require(row.size() == 3 + set.num_steps_,
                  "TraceSet::read_csv: sample count mismatch");
    set.averages_.push_back(require_percent(util::parse_double(row[1]), where));
    const double ram_mb = util::parse_double(row[2]);
    util::require(std::isfinite(ram_mb) && ram_mb >= 0.0,
                  "TraceSet::read_csv: RAM must be finite and >= 0");
    set.ram_mb_.push_back(ram_mb);
    std::vector<float> series;
    series.reserve(set.num_steps_);
    for (std::size_t k = 0; k < set.num_steps_; ++k) {
      series.push_back(
          static_cast<float>(require_percent(util::parse_double(row[3 + k]), where)));
    }
    set.series_.push_back(std::move(series));
  }
  return set;
}

}  // namespace ecocloud::trace
