#pragma once

/// \file drivers.hpp
/// \brief Unit-cost drivers: each calls one layer's public function at a
///        workload's sizes and reports the cost of one call.

#include <string>

#include "common.hpp"
#include "ecocloud/core/params.hpp"
#include "ecocloud/dc/datacenter.hpp"
#include "ecocloud/util/phase_profiler.hpp"

namespace perfbench {

/// ns per executed event of a bare sim::Simulator calendar holding one
/// periodic chain per server (the monitor ticks that dominate a scenario).
double calendar_op_ns(std::size_t servers);

/// ns per server of one dc::monitor_classify pass over \p datacenter.
double classify_ns_per_server(const ecocloud::dc::DataCenter& datacenter,
                              const ecocloud::core::EcoCloudParams& params);

/// us per AssignmentProcedure::invite round over \p datacenter with the
/// sampler \p params select, for a VM of \p demand_mhz.
double invite_us(const ecocloud::dc::DataCenter& datacenter,
                 const ecocloud::core::EcoCloudParams& params, double demand_mhz);

/// Costs measured on one paper-scale campaign (400 servers / 6,000 VMs /
/// 48 h): construction, checkpoint save at a slice boundary and binary
/// event log writing.
struct PaperScaleCosts {
  double ctor_ms = 0.0;
  double ckpt_save_ms = 0.0;
  double snapshot_mb = 0.0;
  double event_write_ns = 0.0;
  double eventlog_mb = 0.0;
};
PaperScaleCosts paper_scale_costs(std::uint64_t seed, const std::string& work_dir);

/// Report the paper-scale driver costs that belong to every workload's
/// traced run (scenario.paper_ctor_ms, ckpt.*, metrics.*).
void add_paper_scale_layers(const PaperScaleCosts& costs, Result& result);

/// The profiler's per-phase split as phase.<name>_s metrics.
void add_profile_phases(const ecocloud::util::PhaseProfiler& profiler,
                        Result& result);

/// Seconds the profiler attributes to \p phase (all domains).
double phase_seconds(const ecocloud::util::PhaseProfiler& profiler,
                     ecocloud::util::Phase phase);

}  // namespace perfbench
