#include "ecocloud/par/shard.hpp"

#include <string>
#include <utility>

#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/ckpt/snapshot_io.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::par {

Shard::Shard(const scenario::DailyConfig& config, const ShardPlan& plan,
             std::size_t shard_id, trace::TraceSource traces)
    : plan_(plan),
      id_(shard_id),
      daily_(config, scenario::FleetSlice{plan.num_shards(), shard_id},
             std::move(traces)) {
  wished_.assign(datacenter().num_servers(), 0);
  controller().events().on_migration_stranded = [this](sim::SimTime t,
                                                       dc::ServerId server,
                                                       bool is_high) {
    // Record-only: no RNG draw, no state change, so single-threaded
    // behavior is untouched whether or not anyone drains the wishes.
    if (wished_[server]) return;
    wished_[server] = 1;
    wishes_.push_back(MigrationWish{t, server, is_high});
  };
}

void Shard::record_events() {
  if (recording_) return;
  recording_ = true;
  log_.attach(controller());
}

void Shard::adopt_trace_row(std::size_t trace_index, const Shard& home) {
  daily_.trace_source().adopt_row(trace_index, home.daily_.trace_source());
}

dc::VmId Shard::create_vm(std::size_t trace_index) {
  const dc::VmId vm = daily_.create_vm(trace_index);
  vm_trace_.push_back(trace_index);
  return vm;
}

bool Shard::deploy(std::size_t trace_index) {
  last_deployed_ = create_vm(trace_index);
  return daily_.deploy_vm(last_deployed_);
}

void Shard::abandon_last_deploy() {
  util::require(last_deployed_ != dc::kNoVm,
                "Shard::abandon_last_deploy: nothing to abandon");
  daily_.trace_driver().unmap_vm(last_deployed_);
  last_deployed_ = dc::kNoVm;
}

void Shard::save_state(util::BinWriter& w) const {
  w.u64(vm_trace_.size());
  for (std::size_t trace : vm_trace_) w.u64(trace);
  w.u64(static_cast<std::uint64_t>(last_deployed_));
  w.u64(wishes_.size());
  for (const MigrationWish& wish : wishes_) {
    w.f64(wish.time);
    w.u64(static_cast<std::uint64_t>(wish.server));
    w.boolean(wish.is_high);
  }
  w.u64(wished_.size());
  for (std::uint8_t flag : wished_) w.boolean(flag != 0);
}

void Shard::load_state(util::BinReader& r) {
  // Every size and id is checked before it can index anything: a section
  // with a valid CRC can still come from a different plan or be forged.
  const auto fail = [this](const std::string& what) {
    throw ckpt::SnapshotError("snapshot: shard " + std::to_string(id_) +
                              " section: " + what);
  };
  const std::size_t servers = datacenter().num_servers();
  const std::uint64_t num_vms = r.u64();
  if (num_vms > r.remaining() / 8) fail("VM count exceeds the payload");
  vm_trace_.assign(static_cast<std::size_t>(num_vms), 0);
  for (std::size_t& trace : vm_trace_) {
    const std::uint64_t row = r.u64();
    if (row >= plan_.num_traces()) fail("trace row outside the plan");
    trace = static_cast<std::size_t>(row);
  }
  const std::uint64_t last = r.u64();
  if (last != dc::kNoVm && last >= vm_trace_.size()) {
    fail("last deployed VM outside the VM map");
  }
  last_deployed_ = static_cast<dc::VmId>(last);
  const std::uint64_t num_wishes = r.u64();
  if (num_wishes > servers) fail("more wishes than servers");
  wishes_.assign(static_cast<std::size_t>(num_wishes), MigrationWish{});
  for (MigrationWish& wish : wishes_) {
    wish.time = r.f64();
    const std::uint64_t server = r.u64();
    if (server >= servers) fail("wish server outside the slice");
    wish.server = static_cast<dc::ServerId>(server);
    wish.is_high = r.boolean();
  }
  if (r.u64() != servers) fail("wish flags do not match the slice size");
  for (std::uint8_t& flag : wished_) flag = r.boolean() ? 1 : 0;
}

void Shard::register_checkpoint(ckpt::CheckpointManager& manager) {
  daily_.register_checkpoint(manager);
  manager.add_section(
      "shard", [this](util::BinWriter& w) { save_state(w); },
      [this](util::BinReader& r) { load_state(r); });
  manager.add_section(
      "event_log",
      [this](util::BinWriter& w) {
        w.boolean(recording_);
        if (recording_) log_.save_state(w);
      },
      [this](util::BinReader& r) {
        // A run that does not record drops the stored rows; a run that
        // records cannot continue a log the snapshot never kept.
        if (!r.boolean()) {
          if (recording_) {
            throw ckpt::SnapshotError(
                "snapshot: shard " + std::to_string(id_) +
                " was written by a run that kept no event log");
          }
          return;
        }
        metrics::EventLog discarded;
        (recording_ ? log_ : discarded).load_state(r);
      });
}

std::optional<dc::ServerId> Shard::invite(sim::SimTime now, double demand_mhz,
                                          double ram_mb, double ta_override) {
  return controller()
      .assignment()
      .invite(datacenter(), now, demand_mhz, ram_mb, ta_override)
      .server;
}

dc::VmId Shard::accept_transfer(sim::SimTime t, std::size_t trace_index,
                                dc::ServerId dest) {
  const dc::VmId vm = create_vm(trace_index);
  datacenter().place_vm(t, vm, dest);
  return vm;
}

void Shard::release_vm(dc::VmId vm) {
  daily_.trace_driver().unmap_vm(vm);
  // The normal departure path: unplaces, settles accounting, and
  // re-evaluates hibernation of the (possibly now empty) source server.
  controller().depart_vm(vm);
}

std::vector<MigrationWish> Shard::take_wishes() {
  std::vector<MigrationWish> out = std::move(wishes_);
  wishes_.clear();
  for (const MigrationWish& wish : out) wished_[wish.server] = 0;
  return out;
}

}  // namespace ecocloud::par
