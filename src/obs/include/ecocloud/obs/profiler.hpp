#pragma once

/// \file profiler.hpp
/// \brief Export facade over util::PhaseProfiler.
///
/// The accounting core lives in util (so sim/core/ckpt/par can emit
/// samples without depending on obs); this class owns the export side:
/// mirroring per-phase totals and duration histograms into the
/// MetricRegistry, emitting Chrome-trace counter tracks, the
/// flamegraph-ready folded-stacks dump, and the self-measured overhead
/// number the CI budget checks.

#include <cstdio>
#include <string>
#include <vector>

#include "ecocloud/obs/metric_registry.hpp"
#include "ecocloud/util/phase_profiler.hpp"

namespace ecocloud::obs {

class ChromeTraceWriter;

class Profiler {
 public:
  /// Registers one series per (domain, phase) in \p registry:
  ///   ecocloud_profile_phase_calls_total        (counter, pull)
  ///   ecocloud_profile_phase_ns_total           (counter, pull; estimate)
  ///   ecocloud_profile_phase_duration_seconds   (histogram, via publish())
  ///   ecocloud_profile_overhead_ratio           (gauge, pull)
  /// Labels: {phase=...} always; plus {domain=...} when the profiler has
  /// more than one domain (shard0..shardN-1, coordinator).
  /// Both referents must outlive this object.
  Profiler(util::PhaseProfiler& core, MetricRegistry& registry);

  [[nodiscard]] util::PhaseProfiler& core() { return core_; }

  /// Mirror the duration histograms into the registry and remember total
  /// run wall time (denominator of overhead_ratio()). Call at safe points
  /// (slice boundary, barrier) and once at the end.
  void publish(double run_wall_seconds);

  /// Cumulative per-phase estimated milliseconds as a counter sample on
  /// the counters track, so the phase mix is visible on the timeline.
  void emit_counter_track(ChromeTraceWriter& trace, double sim_now_s);

  void write_folded(std::ostream& out) const { core_.write_folded(out); }

  /// Estimated self-cost over run wall time (0 before first publish()).
  [[nodiscard]] double overhead_ratio() const;

  /// One-line-per-phase human summary (estimated seconds, calls, share).
  void print_summary(std::FILE* out) const;

 private:
  util::PhaseProfiler& core_;
  MetricRegistry& registry_;
  double run_wall_seconds_ = 0.0;
  // Registered at construction, refreshed wholesale in publish().
  std::vector<Histogram*> duration_hists_;  // num_domains * kNumPhases
};

}  // namespace ecocloud::obs
