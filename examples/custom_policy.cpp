// Custom-policy example: the simulation substrate (Simulator + DataCenter)
// is policy-agnostic — this file implements a new consolidation policy
// from scratch in ~80 lines and races it against ecoCloud on the same
// workload. The policy: a centralized "pack onto the most-loaded server
// that fits" greedy with periodic drain of the emptiest server.
//
//   $ ./custom_policy

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "ecocloud/scenario/scenario.hpp"

using namespace ecocloud;

namespace {

/// A deliberately simple competitor: most-loaded-first placement plus a
/// periodic "drain the emptiest server" pass. Everything it needs from the
/// library is the DataCenter interface the built-in controllers use.
class GreedyPacker {
 public:
  GreedyPacker(sim::Simulator& simulator, dc::DataCenter& datacenter)
      : sim_(simulator), dc_(datacenter) {}

  void start() {
    sim_.schedule_periodic(600.0, [this] { drain_emptiest(); }, 600.0);
  }

  bool deploy_vm(dc::VmId vm) {
    const double demand = dc_.vm(vm).demand_mhz;
    if (const auto target = most_loaded_fitting(demand, dc::kNoServer)) {
      dc_.place_vm(sim_.now(), vm, *target);
      return true;
    }
    // Open a new server instantly (this toy policy ignores boot latency —
    // one of the things the real controllers get right).
    for (const auto& server : dc_.servers()) {
      if (server.hibernated()) {
        dc_.start_booting(sim_.now(), server.id());
        dc_.finish_booting(sim_.now(), server.id());
        dc_.place_vm(sim_.now(), vm, server.id());
        return true;
      }
    }
    return false;
  }

 private:
  std::optional<dc::ServerId> most_loaded_fitting(double demand_mhz,
                                                  dc::ServerId exclude) const {
    std::optional<dc::ServerId> best;
    double best_u = -1.0;
    for (const auto& server : dc_.servers()) {
      if (!server.active() || server.id() == exclude) continue;
      const double committed = server.demand_mhz() + server.reserved_mhz();
      if ((committed + demand_mhz) / server.capacity_mhz() > 0.9) continue;
      if (server.utilization() > best_u) {
        best_u = server.utilization();
        best = server.id();
      }
    }
    return best;
  }

  void drain_emptiest() {
    // Find the least-loaded non-empty server and try to move every VM off.
    dc::ServerId victim = dc::kNoServer;
    double lowest = 2.0;
    for (const auto& server : dc_.servers()) {
      if (server.active() && !server.empty() && server.utilization() < lowest) {
        lowest = server.utilization();
        victim = server.id();
      }
    }
    if (victim == dc::kNoServer || lowest > 0.4) return;
    const std::vector<dc::VmId> vms = dc_.server(victim).vms();  // copy
    for (dc::VmId vm : vms) {
      const auto target = most_loaded_fitting(dc_.vm(vm).demand_mhz, victim);
      if (!target) return;  // partial drain; retry next period
      dc_.begin_migration(sim_.now(), vm, *target);
      dc_.complete_migration(sim_.now(), vm);
    }
    if (dc_.server(victim).empty()) dc_.hibernate(sim_.now(), victim);
  }

  sim::Simulator& sim_;
  dc::DataCenter& dc_;
};

struct Outcome {
  double energy_kwh;
  std::size_t active;
  std::uint64_t migrations;
  double overload_pct;
};

Outcome run_greedy(std::shared_ptr<const trace::TraceSet> matrix) {
  sim::Simulator simulator;
  dc::DataCenter datacenter;
  scenario::FleetConfig fleet;
  fleet.num_servers = 100;
  scenario::build_fleet(datacenter, fleet);
  trace::TraceSource traces(std::move(matrix));
  core::TraceDriver driver(simulator, datacenter, traces);
  GreedyPacker packer(simulator, datacenter);
  packer.start();
  for (std::size_t i = 0; i < traces.num_vms(); ++i) {
    const dc::VmId vm = datacenter.create_vm(0.0, traces.ram_mb(i));
    driver.map_vm(i, vm);
    packer.deploy_vm(vm);
  }
  driver.start();
  simulator.run_until(24.0 * sim::kHour);
  datacenter.advance_to(simulator.now());
  return {datacenter.energy_joules() / 3.6e6, datacenter.active_server_count(),
          datacenter.total_migrations(),
          100.0 * datacenter.overload_vm_seconds() / datacenter.vm_seconds()};
}

Outcome run_ecocloud(const trace::TraceSet& traces) {
  scenario::DailyConfig config;
  config.fleet.num_servers = 100;
  config.horizon_s = 24.0 * sim::kHour;
  scenario::DailyScenario daily(config, traces);
  daily.run();
  const auto& d = daily.datacenter();
  return {d.energy_joules() / 3.6e6, d.active_server_count(),
          d.total_migrations(),
          100.0 * d.overload_vm_seconds() / d.vm_seconds()};
}

}  // namespace

int main() {
  trace::WorkloadModel model;
  util::Rng rng(31337);
  const auto traces = std::make_shared<const trace::TraceSet>(
      trace::TraceSet::generate(model, 1500, 24 * 12 + 2, rng));

  std::printf("1500 VMs, 100 servers, 24 h — ecoCloud vs a hand-rolled policy\n\n");
  std::printf("%-14s %8s %8s %11s %10s\n", "policy", "kWh", "active",
              "migrations", "overload");
  const Outcome eco = run_ecocloud(*traces);
  std::printf("%-14s %8.1f %8zu %11llu %9.4f%%\n", "ecoCloud", eco.energy_kwh,
              eco.active, static_cast<unsigned long long>(eco.migrations),
              eco.overload_pct);
  const Outcome greedy = run_greedy(traces);
  std::printf("%-14s %8.1f %8zu %11llu %9.4f%%\n", "greedy-packer",
              greedy.energy_kwh, greedy.active,
              static_cast<unsigned long long>(greedy.migrations),
              greedy.overload_pct);
  std::printf(
      "\nThe point: new policies plug into the same Simulator/DataCenter\n"
      "substrate the paper's algorithms use — ~80 lines for a working one.\n"
      "(And why the paper's migration procedure matters: packing hard at Ta\n"
      "without overload relief saves watts but destroys QoS — compare the\n"
      "overload columns.)\n");
  return 0;
}
