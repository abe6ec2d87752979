#include "ecocloud/dc/datacenter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ecocloud/util/validation.hpp"

namespace ecocloud::dc {

DataCenter::DataCenter(PowerModel power_model) : power_model_(power_model) {}

ServerId DataCenter::add_server(unsigned num_cores, double core_mhz, double ram_mb) {
  const Server srv = servers_.add(num_cores, core_mhz, ram_mb);
  const ServerId id = srv.id();
  monitor_dirty_flag_.push_back(0);
  // Ids are handed out in increasing order, so the hibernated membership
  // set starts out sorted (and the cached sorted view with it).
  auto& hibernated = state_members_[static_cast<std::size_t>(ServerState::kHibernated)];
  state_pos_.push_back(static_cast<std::uint32_t>(hibernated.size()));
  hibernated.push_back(id);
  sorted_dirty_[static_cast<std::size_t>(ServerState::kHibernated)] = true;
  total_capacity_mhz_ += srv.capacity_mhz();
  power_contrib_w_.push_back(power_model_.power_w(srv));
  total_power_w_ += power_contrib_w_.back();
  overload_vm_contrib_.push_back(0);
  overload_since_.push_back(-1.0);
  overload_min_granted_.push_back(1.0);
  overload_accum_s_.push_back(0.0);
  return id;
}

VmId DataCenter::create_vm(double demand_mhz, double ram_mb) {
  util::require(demand_mhz >= 0.0, "DataCenter::create_vm: demand must be >= 0");
  util::require(ram_mb >= 0.0, "DataCenter::create_vm: ram must be >= 0");
  return vms_.add(demand_mhz, ram_mb);
}

double DataCenter::overall_load() const {
  return total_capacity_mhz_ > 0.0 ? total_demand_mhz_ / total_capacity_mhz_ : 0.0;
}

const std::vector<ServerId>& DataCenter::servers_with(ServerState state) const {
  const auto i = static_cast<std::size_t>(state);
  if (sorted_dirty_[i]) {
    sorted_view_[i] = state_members_[i];
    std::sort(sorted_view_[i].begin(), sorted_view_[i].end());
    sorted_dirty_[i] = false;
  }
  return sorted_view_[i];
}

std::vector<ServerId> DataCenter::servers_in_state(ServerState state) const {
  return servers_with(state);
}

std::vector<double> DataCenter::active_utilizations() const {
  const std::vector<ServerId>& active = servers_with(ServerState::kActive);
  std::vector<double> out;
  out.reserve(active.size());
  for (ServerId s : active) out.push_back(server(s).utilization());
  return out;
}

void DataCenter::move_server_state(ServerId s, ServerState from, ServerState to) {
  std::vector<ServerId>& src = state_members_[static_cast<std::size_t>(from)];
  const std::uint32_t pos = state_pos_[s];
  src[pos] = src.back();
  state_pos_[src[pos]] = pos;
  src.pop_back();
  std::vector<ServerId>& dst = state_members_[static_cast<std::size_t>(to)];
  state_pos_[s] = static_cast<std::uint32_t>(dst.size());
  dst.push_back(s);
  sorted_dirty_[static_cast<std::size_t>(from)] = true;
  sorted_dirty_[static_cast<std::size_t>(to)] = true;
}

void DataCenter::advance_to(sim::SimTime t) {
  util::require(t >= last_time_, "DataCenter::advance_to: time went backwards");
  const double dt = t - last_time_;
  if (dt > 0.0) {
    energy_j_ += total_power_w_ * dt;
    overload_vm_seconds_ += static_cast<double>(overloaded_vm_count_) * dt;
    vm_seconds_ += static_cast<double>(placed_vm_count_) * dt;
    last_time_ = t;
  }
}

void DataCenter::reset_accounting(sim::SimTime t) {
  advance_to(t);
  energy_j_ = 0.0;
  overload_vm_seconds_ = 0.0;
  vm_seconds_ = 0.0;
  overload_episodes_.clear();
  activations_ = 0;
  hibernations_ = 0;
  migrations_ = 0;
  failures_ = 0;
  repairs_ = 0;
  max_inflight_ = inflight_;
}

void DataCenter::mark_monitor_dirty(ServerId s) {
  if (monitor_all_dirty_ || monitor_dirty_flag_[s]) return;
  monitor_dirty_flag_[s] = 1;
  monitor_dirty_ids_.push_back(s);
  // Past ~1/8 of the fleet an incremental drain stops paying for itself —
  // collapse to one branch-light full rebuild.
  if (monitor_dirty_ids_.size() * 8 >= servers_.size()) {
    mark_all_monitor_dirty();
  }
}

void DataCenter::mark_all_monitor_dirty() {
  monitor_all_dirty_ = true;
  for (ServerId s : monitor_dirty_ids_) monitor_dirty_flag_[s] = 0;
  monitor_dirty_ids_.clear();
}

void DataCenter::clear_monitor_dirty() {
  monitor_all_dirty_ = false;
  for (ServerId s : monitor_dirty_ids_) monitor_dirty_flag_[s] = 0;
  monitor_dirty_ids_.clear();
}

void DataCenter::refresh_server(sim::SimTime t, ServerId s) {
  mark_monitor_dirty(s);
  const Server srv = Server(servers_, s);

  const double new_power = power_model_.power_w(srv);
  total_power_w_ += new_power - power_contrib_w_[s];
  power_contrib_w_[s] = new_power;

  const std::size_t new_overload_vms = srv.overloaded() ? srv.vm_count() : 0;
  overloaded_vm_count_ += new_overload_vms;
  overloaded_vm_count_ -= overload_vm_contrib_[s];
  overload_vm_contrib_[s] = new_overload_vms;

  if (!in_demand_refresh_) track_overload_episode(t, s);
}

void DataCenter::track_overload_episode(sim::SimTime t, ServerId s) {
  const Server srv = Server(servers_, s);
  if (srv.overloaded()) {
    if (overload_since_[s] < 0.0) {
      overload_since_[s] = t;
      overload_min_granted_[s] = srv.granted_fraction();
    } else {
      overload_min_granted_[s] =
          std::min(overload_min_granted_[s], srv.granted_fraction());
    }
  } else if (overload_since_[s] >= 0.0) {
    overload_episodes_.push_back(OverloadEpisode{
        s, overload_since_[s], t - overload_since_[s], overload_min_granted_[s]});
    overload_accum_s_[s] += t - overload_since_[s];
    overload_since_[s] = -1.0;
    overload_min_granted_[s] = 1.0;
  }
}

double DataCenter::server_overload_seconds(ServerId s, sim::SimTime t) const {
  util::require(s < servers_.size(), "server_overload_seconds: unknown server");
  const double open =
      overload_since_[s] >= 0.0 ? t - overload_since_[s] : 0.0;
  return overload_accum_s_[s] + open;
}

double DataCenter::vm_overload_seconds(VmId v, sim::SimTime t) const {
  util::require(v < vms_.size(), "vm_overload_seconds: unknown VM");
  if (vms_.host[v] == kNoServer) return vms_.overload_total_s[v];
  return vms_.overload_total_s[v] +
         server_overload_seconds(vms_.host[v], t) - vms_.overload_baseline_s[v];
}

void DataCenter::place_vm(sim::SimTime t, VmId v, ServerId s) {
  advance_to(t);
  util::require(v < vms_.size(), "DataCenter::place_vm: unknown VM");
  Server srv = server_mutable(s);
  util::require(vms_.host[v] == kNoServer, "DataCenter::place_vm: VM already placed");
  util::require(srv.active(), "DataCenter::place_vm: server not active");
  vms_.host[v] = s;
  srv.host_vm(v, vms_.demand_mhz[v], vms_.ram_mb[v]);
  total_demand_mhz_ += vms_.demand_mhz[v];
  ++placed_vm_count_;
  refresh_server(t, s);
  vms_.overload_baseline_s[v] = server_overload_seconds(s, t);
}

void DataCenter::unplace_vm(sim::SimTime t, VmId v) {
  advance_to(t);
  util::require(v < vms_.size(), "DataCenter::unplace_vm: unknown VM");
  util::require(vms_.host[v] != kNoServer, "DataCenter::unplace_vm: VM not placed");
  util::require(vms_.migrating_to[v] == kNoServer,
                "DataCenter::unplace_vm: cancel the migration first");
  const ServerId s = vms_.host[v];
  vms_.overload_total_s[v] +=
      server_overload_seconds(s, t) - vms_.overload_baseline_s[v];
  server_mutable(s).unhost_vm(v, vms_.demand_mhz[v], vms_.ram_mb[v]);
  vms_.host[v] = kNoServer;
  total_demand_mhz_ -= vms_.demand_mhz[v];
  --placed_vm_count_;
  refresh_server(t, s);
}

void DataCenter::set_vm_demand(sim::SimTime t, VmId v, double demand_mhz) {
  util::require(demand_mhz >= 0.0, "DataCenter::set_vm_demand: demand must be >= 0");
  advance_to(t);
  util::require(v < vms_.size(), "DataCenter::set_vm_demand: unknown VM");
  const double delta = demand_mhz - vms_.demand_mhz[v];
  vms_.demand_mhz[v] = demand_mhz;
  const ServerId host = vms_.host[v];
  if (host != kNoServer) {
    Server(servers_, host).change_demand(delta);
    total_demand_mhz_ += delta;
    refresh_server(t, host);
  }
  const ServerId dest = vms_.migrating_to[v];
  if (dest != kNoServer) {
    // Keep the destination reservation in sync with the new demand.
    Server target = Server(servers_, dest);
    target.remove_reservation(vms_.reserved_at_dest_mhz[v]);
    vms_.reserved_at_dest_mhz[v] = demand_mhz;
    target.add_reservation(demand_mhz);
  }
}

void DataCenter::begin_demand_refresh() {
  util::ensure(!in_demand_refresh_, "DataCenter::begin_demand_refresh: already open");
  in_demand_refresh_ = true;
}

void DataCenter::end_demand_refresh(sim::SimTime t) {
  util::ensure(in_demand_refresh_, "DataCenter::end_demand_refresh: none open");
  in_demand_refresh_ = false;
  // Untouched servers are already settled; re-tracking them is a no-op.
  for (ServerId s = 0; s < servers_.size(); ++s) track_overload_episode(t, s);
}

void DataCenter::begin_migration(sim::SimTime t, VmId v, ServerId dest) {
  advance_to(t);
  util::require(v < vms_.size(), "DataCenter::begin_migration: unknown VM");
  util::require(vms_.host[v] != kNoServer,
                "DataCenter::begin_migration: VM not placed");
  util::require(vms_.migrating_to[v] == kNoServer,
                "DataCenter::begin_migration: already migrating");
  util::require(dest != vms_.host[v], "DataCenter::begin_migration: dest == source");
  Server target = server_mutable(dest);
  util::require(target.active() || target.booting(),
                "DataCenter::begin_migration: destination is hibernated");
  vms_.migrating_to[v] = dest;
  vms_.reserved_at_dest_mhz[v] = vms_.demand_mhz[v];
  target.add_reservation(vms_.reserved_at_dest_mhz[v]);
  Server(servers_, vms_.host[v]).add_migrating_out();
  // No refresh_server here (power/overload are demand-driven), but the
  // outbound count changes the source's effective utilization.
  mark_monitor_dirty(vms_.host[v]);
  ++inflight_;
  max_inflight_ = std::max(max_inflight_, inflight_);
}

void DataCenter::complete_migration(sim::SimTime t, VmId v) {
  advance_to(t);
  util::require(v < vms_.size(), "DataCenter::complete_migration: unknown VM");
  util::require(vms_.migrating_to[v] != kNoServer,
                "DataCenter::complete_migration: not migrating");
  const ServerId src = vms_.host[v];
  const ServerId dest = vms_.migrating_to[v];
  Server target = server_mutable(dest);
  util::require(target.active(), "DataCenter::complete_migration: dest not active");

  target.remove_reservation(vms_.reserved_at_dest_mhz[v]);
  vms_.reserved_at_dest_mhz[v] = 0.0;
  vms_.overload_total_s[v] +=
      server_overload_seconds(src, t) - vms_.overload_baseline_s[v];
  Server source = Server(servers_, src);
  source.remove_migrating_out();
  source.unhost_vm(v, vms_.demand_mhz[v], vms_.ram_mb[v]);
  target.host_vm(v, vms_.demand_mhz[v], vms_.ram_mb[v]);
  vms_.host[v] = dest;
  vms_.migrating_to[v] = kNoServer;
  --inflight_;
  ++migrations_;
  refresh_server(t, src);
  refresh_server(t, dest);
  vms_.overload_baseline_s[v] = server_overload_seconds(dest, t);
}

void DataCenter::cancel_migration(sim::SimTime t, VmId v) {
  advance_to(t);
  util::require(v < vms_.size(), "DataCenter::cancel_migration: unknown VM");
  util::require(vms_.migrating_to[v] != kNoServer,
                "DataCenter::cancel_migration: not migrating");
  Server(servers_, vms_.migrating_to[v])
      .remove_reservation(vms_.reserved_at_dest_mhz[v]);
  Server(servers_, vms_.host[v]).remove_migrating_out();
  mark_monitor_dirty(vms_.host[v]);
  vms_.reserved_at_dest_mhz[v] = 0.0;
  vms_.migrating_to[v] = kNoServer;
  --inflight_;
}

void DataCenter::start_booting(sim::SimTime t, ServerId s) {
  advance_to(t);
  Server srv = server_mutable(s);
  util::require(srv.hibernated(), "DataCenter::start_booting: server not hibernated");
  srv.set_state(ServerState::kBooting);
  move_server_state(s, ServerState::kHibernated, ServerState::kBooting);
  refresh_server(t, s);
}

void DataCenter::finish_booting(sim::SimTime t, ServerId s) {
  advance_to(t);
  Server srv = server_mutable(s);
  util::require(srv.booting(), "DataCenter::finish_booting: server not booting");
  srv.set_state(ServerState::kActive);
  move_server_state(s, ServerState::kBooting, ServerState::kActive);
  ++activations_;
  refresh_server(t, s);
}

void DataCenter::hibernate(sim::SimTime t, ServerId s) {
  advance_to(t);
  Server srv = server_mutable(s);
  util::require(srv.active(), "DataCenter::hibernate: server not active");
  util::require(srv.empty(), "DataCenter::hibernate: server still hosts VMs");
  util::require(srv.reserved_mhz() == 0.0,
                "DataCenter::hibernate: inbound migration reservation pending");
  srv.set_state(ServerState::kHibernated);
  move_server_state(s, ServerState::kActive, ServerState::kHibernated);
  ++hibernations_;
  refresh_server(t, s);
}

std::vector<VmId> DataCenter::fail_server(sim::SimTime t, ServerId s) {
  advance_to(t);
  Server srv = server_mutable(s);
  util::require(!srv.failed(), "DataCenter::fail_server: server already failed");
  // Check the reservation *count*, not the float sum: out-of-order releases
  // of concurrent reservations can leave sub-epsilon residue in the sum.
  util::require(srv.reservation_count() == 0,
                "DataCenter::fail_server: roll back inbound migrations first");
  srv.clear_reservations();

  // Orphan every hosted VM, settling its SLA attribution exactly as
  // unplace_vm would. The vector is copied because unhosting mutates it.
  const std::vector<VmId> orphans = srv.vms();
  for (VmId v : orphans) {
    util::require(vms_.migrating_to[v] == kNoServer,
                  "DataCenter::fail_server: roll back outbound migrations first");
    vms_.overload_total_s[v] +=
        server_overload_seconds(s, t) - vms_.overload_baseline_s[v];
    srv.unhost_vm(v, vms_.demand_mhz[v], vms_.ram_mb[v]);
    vms_.host[v] = kNoServer;
    total_demand_mhz_ -= vms_.demand_mhz[v];
    --placed_vm_count_;
  }

  move_server_state(s, srv.state(), ServerState::kFailed);
  srv.set_state(ServerState::kFailed);
  srv.set_grace_until(-1.0);
  srv.set_migration_cooldown_until(-1.0);
  ++failures_;
  refresh_server(t, s);
  return orphans;
}

void DataCenter::repair_server(sim::SimTime t, ServerId s) {
  advance_to(t);
  Server srv = server_mutable(s);
  util::require(srv.failed(), "DataCenter::repair_server: server not failed");
  srv.set_state(ServerState::kHibernated);
  move_server_state(s, ServerState::kFailed, ServerState::kHibernated);
  ++repairs_;
  refresh_server(t, s);
}

namespace {

void save_id_vector(util::BinWriter& w, const std::vector<ServerId>& ids) {
  w.u64(ids.size());
  for (ServerId id : ids) w.u64(id);
}

void load_id_vector(util::BinReader& r, std::vector<ServerId>& ids) {
  const std::uint64_t n = r.u64();
  ids.clear();
  ids.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    ids.push_back(static_cast<ServerId>(r.u64()));
  }
}

void save_double_vector(util::BinWriter& w, const std::vector<double>& xs) {
  w.u64(xs.size());
  for (double x : xs) w.f64(x);
}

void load_double_vector(util::BinReader& r, std::vector<double>& xs) {
  const std::uint64_t n = r.u64();
  xs.clear();
  xs.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) xs.push_back(r.f64());
}

}  // namespace

void DataCenter::save_state(util::BinWriter& w) const {
  w.u64(servers_.size());
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    const Server srv = server(static_cast<ServerId>(s));
    w.u32(srv.num_cores());
    w.f64(srv.core_mhz());
    w.f64(srv.ram_capacity_mb());
    srv.save_state(w);
  }
  w.u64(vms_.size());
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    w.f64(vms_.demand_mhz[i]);
    w.f64(vms_.ram_mb[i]);
    w.u64(vms_.host[i]);
    w.u64(vms_.migrating_to[i]);
    w.f64(vms_.reserved_at_dest_mhz[i]);
    w.f64(vms_.overload_total_s[i]);
    w.f64(vms_.overload_baseline_s[i]);
  }
  save_double_vector(w, power_contrib_w_);
  w.u64(overload_vm_contrib_.size());
  for (std::size_t c : overload_vm_contrib_) w.u64(c);
  save_double_vector(w, overload_since_);
  save_double_vector(w, overload_min_granted_);
  save_double_vector(w, overload_accum_s_);
  // Dense membership sets, in membership order: the O(1) samplers draw by
  // position, so the order itself is part of the deterministic state.
  for (const auto& members : state_members_) save_id_vector(w, members);
  w.u64(placed_vm_count_);
  w.f64(total_capacity_mhz_);
  w.f64(total_demand_mhz_);
  w.f64(total_power_w_);
  w.u64(overloaded_vm_count_);
  w.f64(last_time_);
  w.f64(energy_j_);
  w.f64(overload_vm_seconds_);
  w.f64(vm_seconds_);
  w.u64(overload_episodes_.size());
  for (const OverloadEpisode& ep : overload_episodes_) {
    w.u64(ep.server);
    w.f64(ep.start);
    w.f64(ep.duration_s);
    w.f64(ep.min_granted_fraction);
  }
  w.u64(activations_);
  w.u64(hibernations_);
  w.u64(migrations_);
  w.u64(failures_);
  w.u64(repairs_);
  w.u64(inflight_);
  w.u64(max_inflight_);
}

void DataCenter::load_state(util::BinReader& r) {
  const std::uint64_t num_servers = r.u64();
  if (num_servers != servers_.size()) {
    throw std::runtime_error(
        "DataCenter::load_state: snapshot has " + std::to_string(num_servers) +
        " servers but the configured fleet has " +
        std::to_string(servers_.size()));
  }
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    Server srv = Server(servers_, static_cast<ServerId>(s));
    const std::uint32_t cores = r.u32();
    const double core_mhz = r.f64();
    const double ram_mb = r.f64();
    if (cores != srv.num_cores() || core_mhz != srv.core_mhz() ||
        ram_mb != srv.ram_capacity_mb()) {
      throw std::runtime_error(
          "DataCenter::load_state: server " + std::to_string(srv.id()) +
          " capacity differs from the snapshot (configuration mismatch)");
    }
    srv.load_state(r);
  }
  const std::uint64_t num_vms = r.u64();
  vms_.clear();
  vms_.reserve(static_cast<std::size_t>(num_vms));
  for (std::uint64_t i = 0; i < num_vms; ++i) {
    const double demand = r.f64();
    const double ram = r.f64();
    const VmId id = vms_.add(demand, ram);
    vms_.host[id] = static_cast<ServerId>(r.u64());
    vms_.migrating_to[id] = static_cast<ServerId>(r.u64());
    vms_.reserved_at_dest_mhz[id] = r.f64();
    vms_.overload_total_s[id] = r.f64();
    vms_.overload_baseline_s[id] = r.f64();
  }
  load_double_vector(r, power_contrib_w_);
  const std::uint64_t num_contrib = r.u64();
  overload_vm_contrib_.clear();
  overload_vm_contrib_.reserve(static_cast<std::size_t>(num_contrib));
  for (std::uint64_t i = 0; i < num_contrib; ++i) {
    overload_vm_contrib_.push_back(static_cast<std::size_t>(r.u64()));
  }
  load_double_vector(r, overload_since_);
  load_double_vector(r, overload_min_granted_);
  load_double_vector(r, overload_accum_s_);
  if (power_contrib_w_.size() != servers_.size() ||
      overload_vm_contrib_.size() != servers_.size() ||
      overload_since_.size() != servers_.size() ||
      overload_min_granted_.size() != servers_.size() ||
      overload_accum_s_.size() != servers_.size()) {
    throw std::runtime_error(
        "DataCenter::load_state: per-server cache arrays do not match the "
        "fleet size");
  }
  std::size_t member_total = 0;
  for (auto& members : state_members_) {
    load_id_vector(r, members);
    member_total += members.size();
  }
  if (member_total != servers_.size()) {
    throw std::runtime_error(
        "DataCenter::load_state: state membership does not cover the fleet");
  }
  state_pos_.assign(servers_.size(), 0);
  for (const auto& members : state_members_) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i] >= servers_.size()) {
        throw std::runtime_error(
            "DataCenter::load_state: state membership names unknown server");
      }
      state_pos_[members[i]] = static_cast<std::uint32_t>(i);
    }
  }
  sorted_dirty_.fill(true);
  mark_all_monitor_dirty();
  placed_vm_count_ = static_cast<std::size_t>(r.u64());
  total_capacity_mhz_ = r.f64();
  total_demand_mhz_ = r.f64();
  total_power_w_ = r.f64();
  overloaded_vm_count_ = static_cast<std::size_t>(r.u64());
  last_time_ = r.f64();
  energy_j_ = r.f64();
  overload_vm_seconds_ = r.f64();
  vm_seconds_ = r.f64();
  const std::uint64_t num_episodes = r.u64();
  overload_episodes_.clear();
  overload_episodes_.reserve(static_cast<std::size_t>(num_episodes));
  for (std::uint64_t i = 0; i < num_episodes; ++i) {
    OverloadEpisode ep;
    ep.server = static_cast<ServerId>(r.u64());
    ep.start = r.f64();
    ep.duration_s = r.f64();
    ep.min_granted_fraction = r.f64();
    overload_episodes_.push_back(ep);
  }
  activations_ = r.u64();
  hibernations_ = r.u64();
  migrations_ = r.u64();
  failures_ = r.u64();
  repairs_ = r.u64();
  inflight_ = static_cast<std::size_t>(r.u64());
  max_inflight_ = static_cast<std::size_t>(r.u64());
}

std::vector<std::string> DataCenter::audit_invariants(double tolerance) const {
  std::vector<std::string> violations;
  const auto complain = [&violations](std::string message) {
    violations.push_back(std::move(message));
  };

  // Per-server: hosted list consistency and load == sum of VM demands.
  std::vector<std::size_t> times_hosted(vms_.size(), 0);
  std::size_t hosted_total = 0;
  double demand_total_recomputed = 0.0;
  for (const Server srv : servers()) {
    double demand_sum = 0.0;
    double ram_sum = 0.0;
    std::size_t migrating_out = 0;
    for (VmId v : srv.vms()) {
      if (v >= vms_.size()) {
        complain("server " + std::to_string(srv.id()) +
                 " hosts unknown VM " + std::to_string(v));
        continue;
      }
      ++times_hosted[v];
      if (vms_.host[v] != srv.id()) {
        complain("VM " + std::to_string(v) + " is listed on server " +
                 std::to_string(srv.id()) + " but records host " +
                 std::to_string(vms_.host[v]));
      }
      demand_sum += vms_.demand_mhz[v];
      ram_sum += vms_.ram_mb[v];
      if (vms_.migrating_to[v] != kNoServer) ++migrating_out;
    }
    if (srv.vm_count() != srv.vms().size()) {
      complain("server " + std::to_string(srv.id()) + " vm_count column " +
               std::to_string(srv.vm_count()) + " != hosted list size " +
               std::to_string(srv.vms().size()));
    }
    hosted_total += srv.vm_count();
    demand_total_recomputed += srv.demand_mhz();
    const double demand_tol = tolerance * std::max(1.0, srv.capacity_mhz());
    if (std::abs(demand_sum - srv.demand_mhz()) > demand_tol) {
      complain("server " + std::to_string(srv.id()) + " load " +
               std::to_string(srv.demand_mhz()) + " MHz != sum of hosted VM "
               "demands " + std::to_string(demand_sum) + " MHz");
    }
    if (std::abs(ram_sum - srv.ram_used_mb()) >
        tolerance * std::max(1.0, srv.ram_capacity_mb())) {
      complain("server " + std::to_string(srv.id()) + " RAM accounting drifted");
    }
    if (migrating_out != srv.migrating_out_count()) {
      complain("server " + std::to_string(srv.id()) + " migrating_out_count " +
               std::to_string(srv.migrating_out_count()) + " != " +
               std::to_string(migrating_out) + " migrating hosted VMs");
    }
    if ((srv.hibernated() || srv.failed()) && !srv.empty()) {
      complain("server " + std::to_string(srv.id()) +
               " hosts VMs while powered off");
    }
  }

  // Per-VM: placed exactly once, on the server that lists it; inbound
  // reservation counts match.
  std::vector<std::size_t> inbound(servers_.size(), 0);
  std::size_t migrating_vms = 0;
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    const auto v = static_cast<VmId>(i);
    const std::size_t expected = vms_.host[v] != kNoServer ? 1 : 0;
    if (times_hosted[v] != expected) {
      complain("VM " + std::to_string(v) + " appears " +
               std::to_string(times_hosted[v]) +
               " times in server host lists but placed()=" +
               std::to_string(expected));
    }
    if (vms_.migrating_to[v] != kNoServer) {
      ++migrating_vms;
      if (vms_.migrating_to[v] < servers_.size()) {
        ++inbound[vms_.migrating_to[v]];
      } else {
        complain("VM " + std::to_string(v) +
                 " is migrating to unknown server " +
                 std::to_string(vms_.migrating_to[v]));
      }
    }
  }
  for (const Server srv : servers()) {
    if (srv.reservation_count() != inbound[srv.id()]) {
      complain("server " + std::to_string(srv.id()) + " reservation_count " +
               std::to_string(srv.reservation_count()) + " != " +
               std::to_string(inbound[srv.id()]) + " inbound migrations");
    }
  }
  if (migrating_vms != inflight_) {
    complain("inflight migration counter " + std::to_string(inflight_) +
             " != " + std::to_string(migrating_vms) + " migrating VMs");
  }

  // Dense state membership == brute-force scan (as a set), and the position
  // map points every server at its own slot.
  for (std::size_t st = 0; st < state_members_.size(); ++st) {
    std::vector<ServerId> expected;
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      if (servers_.state[s] == st) expected.push_back(static_cast<ServerId>(s));
    }
    std::vector<ServerId> got = state_members_[st];
    std::sort(got.begin(), got.end());
    if (got != expected) {
      complain(std::string("state membership for '") +
               to_string(static_cast<ServerState>(st)) +
               "' differs from a brute-force fleet scan");
    }
    const std::vector<ServerId>& members = state_members_[st];
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i] >= state_pos_.size() || state_pos_[members[i]] != i) {
        complain("state position map is inconsistent for server " +
                 std::to_string(members[i]));
        break;
      }
    }
    if (!sorted_dirty_[st]) {
      std::vector<ServerId> sorted = state_members_[st];
      std::sort(sorted.begin(), sorted.end());
      if (sorted_view_[st] != sorted) {
        complain(std::string("cached sorted view for '") +
                 to_string(static_cast<ServerState>(st)) + "' is stale");
      }
    }
  }

  // Cached aggregates == recomputation.
  if (hosted_total != placed_vm_count_) {
    complain("placed_vm_count " + std::to_string(placed_vm_count_) + " != " +
             std::to_string(hosted_total) + " hosted VMs");
  }
  if (std::abs(demand_total_recomputed - total_demand_mhz_) >
      tolerance * std::max(1.0, total_capacity_mhz_)) {
    complain("total_demand_mhz drifted from the per-server sum");
  }
  double power_sum = 0.0;
  std::size_t overload_vms = 0;
  for (const Server srv : servers()) {
    const double expected_power = power_model_.power_w(srv);
    if (std::abs(power_contrib_w_[srv.id()] - expected_power) >
        tolerance * std::max(1.0, expected_power)) {
      complain("cached power contribution of server " +
               std::to_string(srv.id()) + " is stale");
    }
    power_sum += power_contrib_w_[srv.id()];
    const std::size_t expected_overload = srv.overloaded() ? srv.vm_count() : 0;
    if (overload_vm_contrib_[srv.id()] != expected_overload) {
      complain("cached overload VM contribution of server " +
               std::to_string(srv.id()) + " is stale");
    }
    overload_vms += overload_vm_contrib_[srv.id()];
  }
  if (std::abs(power_sum - total_power_w_) >
      tolerance * std::max(1.0, power_sum)) {
    complain("total_power_w drifted from the per-server contributions");
  }
  if (overload_vms != overloaded_vm_count_) {
    complain("overloaded_vm_count " + std::to_string(overloaded_vm_count_) +
             " != " + std::to_string(overload_vms) + " from contributions");
  }
  return violations;
}

std::size_t DataCenter::heal_caches() {
  std::size_t healed = 0;
  mark_all_monitor_dirty();

  // The vm_count column is pure mirror state; resync it first so the
  // aggregate healing below reads the truth.
  bool vm_count_changed = false;
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    const auto n = static_cast<std::uint32_t>(servers_.vms[s].size());
    if (servers_.vm_count[s] != n) {
      servers_.vm_count[s] = n;
      vm_count_changed = true;
    }
  }
  if (vm_count_changed) ++healed;

  // Rebuild the dense membership sets when they disagree with the state
  // column *as sets* (healing re-derives membership in ascending id order —
  // a healed run may therefore sample in a different order, exactly as
  // documented for the heal audit action).
  bool members_ok = state_pos_.size() == servers_.size();
  if (members_ok) {
    std::array<std::size_t, 4> counts{};
    for (std::size_t s = 0; s < servers_.size() && members_ok; ++s) {
      const auto st = static_cast<std::size_t>(servers_.state[s]);
      const std::vector<ServerId>& members = state_members_[st];
      const std::uint32_t pos = state_pos_[s];
      if (pos >= members.size() || members[pos] != static_cast<ServerId>(s)) {
        members_ok = false;
      }
      ++counts[st];
    }
    for (std::size_t st = 0; st < 4 && members_ok; ++st) {
      if (counts[st] != state_members_[st].size()) members_ok = false;
    }
  }
  if (!members_ok) {
    for (auto& members : state_members_) members.clear();
    state_pos_.assign(servers_.size(), 0);
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      auto& members = state_members_[static_cast<std::size_t>(servers_.state[s])];
      state_pos_[s] = static_cast<std::uint32_t>(members.size());
      members.push_back(static_cast<ServerId>(s));
    }
    ++healed;
  }
  sorted_dirty_.fill(true);

  double power_sum = 0.0;
  std::size_t overload_vms = 0;
  bool contrib_changed = false;
  for (const Server srv : servers()) {
    const double power = power_model_.power_w(srv);
    if (power_contrib_w_[srv.id()] != power) {
      power_contrib_w_[srv.id()] = power;
      contrib_changed = true;
    }
    const std::size_t overload = srv.overloaded() ? srv.vm_count() : 0;
    if (overload_vm_contrib_[srv.id()] != overload) {
      overload_vm_contrib_[srv.id()] = overload;
      contrib_changed = true;
    }
    power_sum += power;
    overload_vms += overload;
  }
  if (contrib_changed || total_power_w_ != power_sum ||
      overloaded_vm_count_ != overload_vms) {
    total_power_w_ = power_sum;
    overloaded_vm_count_ = overload_vms;
    ++healed;
  }

  std::size_t hosted = 0;
  double demand = 0.0;
  double capacity = 0.0;
  std::size_t migrating = 0;
  for (const Server srv : servers()) {
    hosted += srv.vm_count();
    demand += srv.demand_mhz();
    capacity += srv.capacity_mhz();
  }
  for (ServerId dest : vms_.migrating_to) {
    if (dest != kNoServer) ++migrating;
  }
  if (placed_vm_count_ != hosted || total_demand_mhz_ != demand ||
      total_capacity_mhz_ != capacity || inflight_ != migrating) {
    placed_vm_count_ = hosted;
    total_demand_mhz_ = demand;
    total_capacity_mhz_ = capacity;
    inflight_ = migrating;
    ++healed;
  }
  return healed;
}

}  // namespace ecocloud::dc
