#pragma once

/// \file common.hpp
/// \brief Shared pieces of the repository benchmark: options, the result
///        record every workload fills, timing/percentile helpers, the span
///        tracer of traced runs, the allocation counter and provenance.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark process (one workload run).
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  /// Nominal measuring time; recorded in the provenance. The engine
  /// workloads run a fixed number of whole runs whatever its value, so
  /// their figures compare across run lengths.
  double seconds = 40.0;
  bool trace = false;
  /// Scratch directory for server state, snapshots and span dumps.
  std::string work_dir = ".bench_build/work";
  std::string git_rev = "unknown";
};

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports back to main().
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable reasons for every failure (printed, never hidden).
  std::vector<std::string> failures;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record one checked operation; a false \p ok counts as a failure.
  void check(bool ok, const std::string& what);
};

// ---------------------------------------------------------------------------
// Timing and statistics

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0,1]) of \p values; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Wall-clock seconds per call of \p fn: the median of 5 rounds, each
/// calling it until 50 ms have passed.
template <typename Fn>
double time_per_call(Fn&& fn) {
  std::vector<double> per_call;
  for (int r = 0; r < 5; ++r) {
    std::uint64_t calls = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = seconds_since(t0);
    } while (elapsed < 0.05);
    per_call.push_back(elapsed / static_cast<double>(calls));
  }
  return median(std::move(per_call));
}

// ---------------------------------------------------------------------------
// Process probes

/// Kernel VmHWM of this process in MB (high-water resident set size).
[[nodiscard]] double peak_rss_mb();

/// Turn the global operator new counter on or off. It is off by default
/// and stays off in timed runs; set it before starting any thread.
void count_allocations(bool on);
/// Global operator new calls made by this binary while counting was on.
[[nodiscard]] std::uint64_t allocation_count();

/// FNV-1a 64-bit digest of \p bytes.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);
[[nodiscard]] std::string hex64(std::uint64_t v);

/// Host and build facts every result carries, as one JSON object.
[[nodiscard]] std::string provenance_json(const Options& opt,
                                          const std::string& workload_args);

// ---------------------------------------------------------------------------
// Span tracer (traced runs only)

/// In-memory span recorder. Disabled tracers record nothing; enabled ones
/// keep every span until write() dumps them. Spans nest: a span opened
/// while another is open on the same tracer gets it as parent.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
    std::string run;  ///< workload run the span belongs to
  };

  void enable(std::string run) {
    enabled_ = true;
    run_ = std::move(run);
  }
  void disable() { enabled_ = false; }

  /// Open a span; returns its index (or -1 when disabled).
  int open(std::string name);
  void close(int index);
  /// Record an already finished span under the innermost open span.
  void add(std::string name, Clock::time_point start, Clock::time_point end);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: count, total duration and self time (duration minus
  /// the part of the interval covered by child spans), in seconds.
  struct Rollup {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::vector<Rollup> rollup() const;

  /// Write all spans plus the provenance object as JSON to \p path.
  void write(const std::string& path, const std::string& provenance) const;

 private:
  bool enabled_ = false;
  std::string run_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The process-wide tracer used by every workload.
Tracer& tracer();

/// RAII span on the process tracer.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name) : index_(tracer().open(std::move(name))) {}
  ~ScopedSpan() { tracer().close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

// ---------------------------------------------------------------------------
// Reconcile table (traced runs)

/// One row: a layer's unit cost times its count, next to the time the
/// profiler (or a span) attributes to the same layer when one exists. A
/// layer without a unit-cost driver (unit_cost_s < 0) contributes its
/// measured time instead.
struct ReconcileRow {
  std::string layer;
  double unit_cost_s = 0.0;
  double count = 0.0;
  double measured_s = -1.0;  ///< < 0 when nothing measures it directly
};

/// Print the table for \p workload: every row's unit x count, the sum, and
/// the gap to \p target_s (the measured untraced run_s). Rows
/// and the total whose gap exceeds 10% are flagged.
void print_reconcile(const std::string& workload, const std::string& target_name,
                     double target_s, const std::vector<ReconcileRow>& rows);

// ---------------------------------------------------------------------------
// Workloads

Result run_scaleup_single(const Options& opt);
Result run_planet_sharded(const Options& opt);
/// srv and obs per-layer metrics from a \p seconds window of open-loop
/// campaign load against an in-process CampaignServer over HTTP.
void measure_server_layers(const Options& opt, double seconds, Result& res);

}  // namespace perfbench
