#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <vector>

#include "drivers.hpp"
#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/core/assignment.hpp"
#include "ecocloud/dc/monitor_kernel.hpp"
#include "ecocloud/metrics/event_log.hpp"
#include "ecocloud/metrics/event_log_binary.hpp"
#include "ecocloud/scenario/scenario.hpp"
#include "ecocloud/sim/simulator.hpp"
#include "ecocloud/util/rng.hpp"

namespace perfbench {

using namespace ecocloud;

double calendar_op_ns(std::size_t servers) {
  // One periodic chain per server with an empty body: what remains is the
  // calendar's own pop / re-arm / dispatch cost, the part the profiler's
  // calendar_ops phase covers.
  sim::Simulator simulator;
  util::Rng rng(servers);
  for (std::size_t s = 0; s < servers; ++s) {
    const double phase = static_cast<double>(rng() % 300'000) / 1000.0;
    simulator.schedule_periodic(300.0, [] {}, phase);
  }
  simulator.run_until(3600.0);  // warm the slab and the rings
  const std::uint64_t before = simulator.executed_events();
  const auto t0 = Clock::now();
  simulator.run_until(3600.0 * 25.0);
  const double wall = seconds_since(t0);
  const auto executed = simulator.executed_events() - before;
  return executed > 0 ? wall * 1e9 / static_cast<double>(executed) : 0.0;
}

double classify_ns_per_server(const dc::DataCenter& datacenter,
                              const core::EcoCloudParams& params) {
  const std::size_t n = datacenter.num_servers();
  std::vector<double> u_eff(n);
  std::vector<std::uint8_t> cls(n);
  const double per_call = time_per_call([&] {
    dc::monitor_classify(datacenter.servers_soa(), 0, n, params.tl, params.th,
                         u_eff.data(), cls.data());
  });
  return per_call * 1e9 / static_cast<double>(n);
}

double invite_us(const dc::DataCenter& datacenter,
                 const core::EcoCloudParams& params, double demand_mhz) {
  util::Rng rng(0x5eed);
  const core::AssignmentProcedure procedure(params, rng);
  const sim::SimTime now = datacenter.last_update_time();
  const auto round = [&] { (void)procedure.invite(datacenter, now, demand_mhz); };
  return time_per_call(round) * 1e6;
}

PaperScaleCosts paper_scale_costs(std::uint64_t seed, const std::string& work_dir) {
  ScopedSpan span("driver.paper_scale");
  PaperScaleCosts out;
  scenario::DailyConfig config;  // the paper's 400 servers / 6,000 VMs / 48 h
  config.seed = seed;

  std::vector<double> ctor_ms;
  std::optional<scenario::DailyScenario> daily;
  for (int i = 0; i < 5; ++i) {
    daily.reset();
    const auto t0 = Clock::now();
    daily.emplace(config);
    ctor_ms.push_back(seconds_since(t0) * 1e3);
  }
  out.ctor_ms = median(ctor_ms);

  // Wired exactly like a campaign-server worker: scenario sections plus the
  // event log, saved at a slice boundary halfway through the horizon.
  metrics::EventLog event_log;
  event_log.attach(*daily->ecocloud());
  ckpt::CheckpointManager manager(daily->simulator());
  daily->register_checkpoint(manager);
  manager.add_section(
      "event_log", [&event_log](util::BinWriter& w) { event_log.save_state(w); },
      [&event_log](util::BinReader& r) { event_log.load_state(r); });
  daily->start();
  daily->run_slice(config.horizon_s / 2.0);

  const std::string snap = work_dir + "/paper_driver.ckpt";
  std::vector<double> save_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    manager.save(snap);
    save_ms.push_back(seconds_since(t0) * 1e3);
  }
  out.ckpt_save_ms = median(save_ms);
  out.snapshot_mb = static_cast<double>(std::filesystem::file_size(snap)) / 1e6;
  std::filesystem::remove(snap);

  daily->run_slice(config.horizon_s);
  daily->finish();

  const std::string log_path = work_dir + "/paper_driver.events.bin";
  std::vector<double> write_ns;
  for (int i = 0; i < 5; ++i) {
    std::ofstream file(log_path, std::ios::binary | std::ios::trunc);
    const auto t0 = Clock::now();
    {
      metrics::BinaryEventWriter writer(file);
      for (const metrics::Event& e : event_log.events()) writer.write(e);
      writer.flush();
    }
    file.flush();
    write_ns.push_back(seconds_since(t0) * 1e9 /
                       static_cast<double>(std::max<std::size_t>(1, event_log.size())));
  }
  out.event_write_ns = median(write_ns);
  out.eventlog_mb = static_cast<double>(std::filesystem::file_size(log_path)) / 1e6;
  std::filesystem::remove(log_path);
  return out;
}

void add_paper_scale_layers(const PaperScaleCosts& costs, Result& result) {
  result.layer("scenario.paper_ctor_ms", costs.ctor_ms, "ms");
  result.layer("ckpt.save_ms", costs.ckpt_save_ms, "ms");
  result.layer("ckpt.snapshot_mb", costs.snapshot_mb, "MB");
  result.layer("metrics.event_write_ns", costs.event_write_ns, "ns");
  result.layer("metrics.eventlog_mb", costs.eventlog_mb, "MB");
}

double phase_seconds(const util::PhaseProfiler& profiler, util::Phase phase) {
  return profiler.total(phase).estimated_ns() * 1e-9;
}

void add_profile_phases(const util::PhaseProfiler& profiler, Result& result) {
  for (std::size_t p = 0; p < util::kNumPhases; ++p) {
    const auto phase = static_cast<util::Phase>(p);
    result.layer(std::string("phase.") + util::to_string(phase) + "_s",
                 phase_seconds(profiler, phase), "s");
  }
}

}  // namespace perfbench
