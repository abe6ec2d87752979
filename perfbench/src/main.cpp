// perfbench: the repository benchmark. One process runs one workload once
// and prints, as its last stdout line, one JSON object with the keys
// correct / attempted / failed / metrics. Untraced runs report the
// end-to-end metrics; traced runs (--trace 1) report the per-layer ones,
// print the reconcile table and dump their spans.
//
//   perfbench --workload scaleup_single|planet_sharded
//             --seed N --seconds S --trace 0|1 [--work-dir DIR] [--git-rev REV]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "pinned.hpp"

namespace {

using perfbench::Metric;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, in BENCHMARK.json order. Each workload reports
// all of them.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"events_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

// Every per-layer metric, in BENCHMARK.json order. A metric of a layer a
// workload does not exercise is reported as 0 and listed on stdout.
constexpr MetricSpec kPerLayer[] = {
    {"scenario.ctor_s", "s"},
    {"scenario.start_s", "s"},
    {"scenario.slice_ms_p50", "ms"},
    {"scenario.slice_ms_max", "ms"},
    {"scenario.paper_ctor_ms", "ms"},
    {"sim.events", "count"},
    {"sim.ring_fire_ratio", "ratio"},
    {"sim.cancels", "count"},
    {"sim.dropped_cancelled", "count"},
    {"sim.slab_high_water", "count"},
    {"sim.calendar_op_ns", "ns"},
    {"dc.classify_ns_per_server", "ns"},
    {"dc.migrations", "count"},
    {"dc.activations", "count"},
    {"dc.hibernations", "count"},
    {"core.invitation_rounds", "count"},
    {"core.invitations_sent", "count"},
    {"core.volunteer_replies", "count"},
    {"core.invite_us", "us"},
    {"core.accept_ratio.fa", "ratio"},
    {"core.accept_ratio.fl", "ratio"},
    {"core.accept_ratio.fh", "ratio"},
    {"trace.advance_ms", "ms"},
    {"par.barriers", "count"},
    {"par.stranded_wishes", "count"},
    {"par.handoff_attempts", "count"},
    {"par.cross_shard_migrations", "count"},
    {"par.serial_run_s", "s"},
    {"par.speedup", "x"},
    {"par.efficiency", "ratio"},
    {"ckpt.save_ms", "ms"},
    {"ckpt.snapshot_mb", "MB"},
    {"metrics.event_write_ns", "ns"},
    {"metrics.eventlog_mb", "MB"},
    {"srv.submit_ms_p50", "ms"},
    {"srv.submit_ms_p99", "ms"},
    {"srv.journal_append_ms", "ms"},
    {"srv.exec_s_p50", "s"},
    {"srv.queue_wait_s_p90", "s"},
    {"srv.refused", "count"},
    {"srv.status_ms_p99", "ms"},
    {"obs.api_ms_p99", "ms"},
    {"obs.metrics_ms_p99", "ms"},
    {"obs.metrics_bytes", "bytes"},
    {"obs.list_ms_p99", "ms"},
    {"gen_lag_ms_max", "ms"},
    {"alloc_per_event", "1/event"},
    {"phase.calendar_ops_s", "s"},
    {"phase.monitor_sweep_s", "s"},
    {"phase.invite_sampling_s", "s"},
    {"phase.vm_lifecycle_s", "s"},
    {"phase.trace_advance_s", "s"},
    {"phase.barrier_wait_s", "s"},
    {"phase.handoff_s", "s"},
    {"phase.checkpoint_write_s", "s"},
    {"phase.monitor_batch_s", "s"},
    {"bench.traced_run_s", "s"},
    {"bench.tracing_overhead_s", "s"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "scaleup_single|planet_sharded --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--git-rev REV]\n",
               why);
  std::exit(2);
}

/// Order \p got by \p specs; a spec the workload did not report becomes 0
/// (and is named in \p missing). A reported metric outside the specs is a
/// programming error.
template <std::size_t N>
std::vector<Metric> canonical(const std::vector<Metric>& got,
                              const MetricSpec (&specs)[N],
                              std::vector<std::string>& missing) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    Metric m{spec.name, 0.0, spec.unit};
    bool found = false;
    for (const Metric& g : got) {
      if (g.name == spec.name) {
        m.value = g.value;
        found = true;
      }
    }
    if (!found) missing.push_back(spec.name);
    out.push_back(m);
  }
  for (const Metric& g : got) {
    bool known = false;
    for (const MetricSpec& spec : specs) known = known || g.name == spec.name;
    if (!known) {
      std::fprintf(stderr, "perfbench: metric %s is not declared\n", g.name.c_str());
      std::exit(3);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.seed = perfbench::kDefaultSeed;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else if (arg == "--git-rev") {
      opt.git_rev = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build with assertions on\n");
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be > 0");

  perfbench::Result (*workload)(const perfbench::Options&) = nullptr;
  std::string args;
  if (opt.workload == "scaleup_single") {
    workload = perfbench::run_scaleup_single;
    args = "servers=4000 vms=60000 warmup_h=6 hours=48 sampler=broadcast "
           "traces=materialized slice=1h";
  } else if (opt.workload == "planet_sharded") {
    workload = perfbench::run_planet_sharded;
    args = "servers=100000 vms=1500000 warmup_h=1 hours=3 sampler=floyd invite_group=64 "
           "traces=streaming shards=8 threads=4";
  } else {
    usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  std::filesystem::create_directories(opt.work_dir);
  const std::string provenance = perfbench::provenance_json(opt, args);
  std::printf("# provenance %s\n", provenance.c_str());
  std::fflush(stdout);

  // Only the traced mode counts allocations; timed runs keep the plain
  // allocation path.
  perfbench::count_allocations(opt.trace);
  perfbench::Result res;
  try {
    res = workload(opt);
  } catch (const std::exception& ex) {
    res.check(false, std::string("workload threw: ") + ex.what());
  }
  if (res.attempted == 0) res.check(false, "workload attempted nothing");

  std::vector<std::string> missing;
  std::vector<Metric> metrics;
  if (opt.trace) {
    metrics = canonical(res.per_layer, kPerLayer, missing);
    if (!missing.empty()) {
      std::printf("# layers not exercised by %s (reported as 0):", opt.workload.c_str());
      for (const auto& m : missing) std::printf(" %s", m.c_str());
      std::printf("\n");
    }
    // What the counter adds to one operator new on this thread.
    const auto new_delete_ns = [] {
      return perfbench::time_per_call([] {
               void* volatile p = ::operator new(32);
               ::operator delete(p);
             }) *
             1e9;
    };
    const double counted_ns = new_delete_ns();
    perfbench::count_allocations(false);
    std::printf("# allocation counter: new+delete %.1f ns counted, %.1f ns not counted\n",
                counted_ns, new_delete_ns());
    const std::string spans = opt.work_dir + "/" + opt.workload + "-seed" +
                              std::to_string(opt.seed) + ".spans.json";
    perfbench::tracer().write(spans, provenance);
    std::printf("# spans (%zu) written to %s; self time per span name:\n",
                perfbench::tracer().spans().size(), spans.c_str());
    for (const auto& r : perfbench::tracer().rollup()) {
      std::printf("#   %-24s n=%-6llu total %.4f s  self %.4f s\n", r.name.c_str(),
                  static_cast<unsigned long long>(r.count), r.total_s, r.self_s);
    }
  } else {
    metrics = canonical(res.end_to_end, kEndToEnd, missing);
    for (const auto& m : missing) res.check(false, "end-to-end metric " + m + " missing");
  }
  for (const auto& f : res.failures) std::printf("# FAILED: %s\n", f.c_str());
  std::printf("# attempted %llu, failed %llu, failed_ratio %.6f\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              static_cast<double>(res.failed) / static_cast<double>(res.attempted));

  std::string json = "{\"correct\": ";
  json += res.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), v, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return res.failed == 0 ? 0 : 1;
}
