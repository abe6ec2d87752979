#include "ecocloud/srv/server.hpp"

#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ecocloud/obs/exporters.hpp"
#include "ecocloud/obs/progress.hpp"
#include "ecocloud/par/sharded_runner.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::srv {

namespace {

using Clock = std::chrono::steady_clock;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string json_error(const std::string& message) {
  return "{\"error\":\"" + json_escape(message) + "\"}\n";
}

/// Parse "/campaigns/<id>[/suffix]". Returns nullopt when the path does
/// not carry a well-formed id.
std::optional<std::uint64_t> parse_campaign_id(const std::string& target,
                                               std::string* suffix) {
  constexpr const char kPrefix[] = "/campaigns/";
  if (target.rfind(kPrefix, 0) != 0) return std::nullopt;
  const std::string rest = target.substr(sizeof(kPrefix) - 1);
  const std::size_t slash = rest.find('/');
  const std::string id_str = rest.substr(0, slash);
  if (suffix != nullptr) {
    *suffix = slash == std::string::npos ? "" : rest.substr(slash);
  }
  if (id_str.empty()) return std::nullopt;
  std::uint64_t id = 0;
  for (const char ch : id_str) {
    if (ch < '0' || ch > '9') return std::nullopt;
    id = id * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  return id;
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

CampaignServer::CampaignServer(ServerConfig config)
    : config_(std::move(config)) {
  util::require(config_.workers >= 1, "campaign server needs >= 1 worker");
  util::require(config_.queue_capacity >= 1,
                "campaign server needs queue capacity >= 1");
  util::require(config_.slice_s > 0.0,
                "campaign server slice must be positive sim-seconds");
  util::require(!config_.data_dir.empty(),
                "campaign server needs a data dir");
  if (!config_.rss_probe) config_.rss_probe = [] { return obs::current_rss_mb(); };
  if (config_.rss_high_mb > 0.0 && config_.rss_low_mb <= 0.0) {
    config_.rss_low_mb = 0.9 * config_.rss_high_mb;
  }
}

CampaignServer::~CampaignServer() {
  if (started_) {
    drain();
    return;
  }
  // start() threw midway (or was never called): tear down whatever
  // partial machinery exists without the drain protocol.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_pressure_ = true;
  }
  pressure_cv_.notify_all();
  if (pressure_thread_.joinable()) pressure_thread_.join();
}

std::string CampaignServer::events_path(std::uint64_t id) const {
  return config_.data_dir + "/campaign_" + std::to_string(id) + ".events.csv";
}

std::string CampaignServer::checkpoint_path(std::uint64_t id) const {
  return config_.data_dir + "/campaign_" + std::to_string(id) + ".ckpt";
}

void CampaignServer::start() {
  util::require(!started_, "CampaignServer::start called twice");
  if (::mkdir(config_.data_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create data dir " + config_.data_dir +
                             ": " + std::strerror(errno));
  }

  registry_.counter("ecocloud_server_submissions_total",
                    {{"result", "accepted"}},
                    "Campaign submissions by admission outcome");
  for (const char* result : {"duplicate", "rejected_invalid",
                             "rejected_capacity", "rejected_draining"}) {
    registry_.counter("ecocloud_server_submissions_total",
                      {{"result", result}});
  }
  registry_.counter("ecocloud_server_evictions_total", {{"reason", "quota"}},
                    "Campaigns checkpointed and evicted, by reason");
  registry_.counter("ecocloud_server_evictions_total", {{"reason", "memory"}});
  registry_.counter("ecocloud_server_checkpoints_total", {},
                    "Campaign checkpoint snapshots written");
  registry_.gauge_fn("ecocloud_server_rss_mb", config_.rss_probe, {},
                     "Resident set size of the server process");

  {
    std::lock_guard<std::mutex> lock(mutex_);
    journal_.emplace(config_.data_dir + "/journal.bin");
    recover_locked();
  }
  pool_.emplace(config_.workers);
  pressure_thread_ = std::thread([this] { pressure_loop(); });
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dispatch_locked();
  }
  http_.emplace([this](const obs::HttpRequest& req) { return handle(req); },
                config_.port, config_.http_limits);
  started_ = true;
}

void CampaignServer::recover_locked() {
  for (const JournalRecord& record : journal_->recovered()) {
    if (record.type == JournalRecordType::kSubmit) {
      Campaign campaign;
      campaign.id = record.campaign_id;
      try {
        campaign.spec = parse_submission(record.config_text);
      } catch (const std::exception& ex) {
        // The config was parseable when accepted; failing to re-parse it
        // means the parser changed underneath a live journal. Surface as
        // a failed campaign instead of dropping the accepted submission.
        campaign.state = CampaignState::kFailed;
        campaign.detail = std::string("journal replay: ") + ex.what();
      }
      // The journaled lease fields are authoritative.
      campaign.spec.client = record.client;
      campaign.spec.idem_key = record.idem_key;
      campaign.spec.quota = record.quota;
      campaign.watchdog.set_quota(record.quota);
      campaign.footprint = campaign.spec.config.num_vms;
      campaigns_[campaign.id] = std::move(campaign);
      if (record.campaign_id >= next_id_) next_id_ = record.campaign_id + 1;
    } else {
      const auto it = campaigns_.find(record.campaign_id);
      if (it == campaigns_.end()) continue;  // never possible on our own journal
      it->second.state = record.state;
      it->second.detail = record.detail;
    }
  }

  recovered_ = campaigns_.size();
  for (auto& [id, campaign] : campaigns_) {
    if (!campaign.spec.idem_key.empty()) {
      idem_index_[{campaign.spec.client, campaign.spec.idem_key}] = id;
    }
    if (is_terminal(campaign.state)) continue;
    campaign.has_checkpoint = file_exists(checkpoint_path(id));
    campaign.fresh_window = true;  // budget windows do not survive restarts
    if (campaign.state == CampaignState::kEvicted) {
      continue;  // stays evicted until a client resumes it
    }
    // queued, paused, or (never journaled, but belt-and-braces) running:
    // re-queue. With a checkpoint on disk the campaign resumes
    // bit-identically; without one it restarts from scratch — either way
    // it runs exactly once from the client's point of view.
    campaign.state = CampaignState::kQueued;
    campaign.pause_requested = false;
    campaign.memory_paused = false;
    enqueue_locked(id);
  }

  // Publish labeled gauges for everything we recovered. Campaigns that are
  // already terminal never run another slice, so this is their only chance
  // to appear on /metrics after a restart.
  for (const auto& [id, campaign] : campaigns_) {
    update_campaign_metrics_locked(campaign);
  }
}

void CampaignServer::drain() {
  bool stop_pool = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!draining_) {
      draining_ = true;
      for (auto& [id, campaign] : campaigns_) {
        if (campaign.state == CampaignState::kRunning) {
          campaign.pause_requested = true;
        }
      }
      stop_pool = true;
    }
    cv_.wait(lock, [this] { return running_count_ == 0; });
    stop_pressure_ = true;
  }
  pressure_cv_.notify_all();
  if (pressure_thread_.joinable()) pressure_thread_.join();
  if (stop_pool && pool_) pool_->stop();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (journal_) journal_->flush();
  }
  if (http_) http_->stop();
}

bool CampaignServer::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

std::uint16_t CampaignServer::port() const {
  util::ensure(http_.has_value(), "CampaignServer::port before start()");
  return http_->port();
}

bool CampaignServer::wait_idle(double timeout_s) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s), [this] {
    return queued_count_ == 0 && running_count_ == 0;
  });
}

std::optional<CampaignState> CampaignServer::state_of(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = campaigns_.find(id);
  if (it == campaigns_.end()) return std::nullopt;
  return it->second.state;
}

std::size_t CampaignServer::recovered_campaigns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recovered_;
}

// ---------------------------------------------------------------------------
// HTTP API

obs::HttpResponse CampaignServer::handle(const obs::HttpRequest& request) {
  if (request.target == "/healthz" && request.method == "GET") {
    return obs::HttpResponse::text(200, "ok\n");
  }
  if (request.target == "/metrics" && request.method == "GET") {
    return metrics_text();
  }
  if (request.target == "/campaigns") {
    if (request.method == "POST") return submit(request);
    if (request.method == "GET") return list_campaigns();
    obs::HttpResponse resp =
        obs::HttpResponse::text(405, "method not allowed\n");
    resp.extra_headers.push_back("Allow: GET, POST");
    return resp;
  }
  std::string suffix;
  if (const auto id = parse_campaign_id(request.target, &suffix)) {
    if (suffix.empty()) {
      if (request.method == "GET") return status_doc(*id);
      if (request.method == "DELETE") return cancel(*id);
      obs::HttpResponse resp =
          obs::HttpResponse::text(405, "method not allowed\n");
      resp.extra_headers.push_back("Allow: GET, DELETE");
      return resp;
    }
    if (suffix == "/resume") {
      if (request.method == "POST") return resume(*id);
      obs::HttpResponse resp =
          obs::HttpResponse::text(405, "method not allowed\n");
      resp.extra_headers.push_back("Allow: POST");
      return resp;
    }
  }
  return obs::HttpResponse::json(404, json_error("not found"));
}

obs::HttpResponse CampaignServer::metrics_text() {
  std::ostringstream out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    obs::write_prometheus(registry_, out);
  }
  obs::HttpResponse resp;
  resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  resp.body = out.str();
  return resp;
}

obs::HttpResponse CampaignServer::submit(const obs::HttpRequest& request) {
  CampaignSpec spec;
  try {
    spec = parse_submission(request.body);
  } catch (const std::exception& ex) {
    std::lock_guard<std::mutex> lock(mutex_);
    registry_.counter("ecocloud_server_submissions_total",
                      {{"result", "rejected_invalid"}})
        .inc();
    return obs::HttpResponse::json(400, json_error(ex.what()));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (draining_) {
    registry_.counter("ecocloud_server_submissions_total",
                      {{"result", "rejected_draining"}})
        .inc();
    return obs::HttpResponse::json(
        503, json_error("server is draining; resubmit after restart"));
  }
  if (!spec.idem_key.empty()) {
    const auto it = idem_index_.find({spec.client, spec.idem_key});
    if (it != idem_index_.end()) {
      registry_.counter("ecocloud_server_submissions_total",
                        {{"result", "duplicate"}})
          .inc();
      const Campaign& existing = campaigns_.at(it->second);
      return obs::HttpResponse::json(
          200, "{\"id\":" + std::to_string(existing.id) + ",\"state\":\"" +
                   to_string(existing.state) + "\",\"duplicate\":true}\n");
    }
  }
  if (queued_count_ >= config_.queue_capacity) {
    registry_.counter("ecocloud_server_submissions_total",
                      {{"result", "rejected_capacity"}})
        .inc();
    obs::HttpResponse resp = obs::HttpResponse::json(
        429, json_error("submission queue full; retry later"));
    resp.extra_headers.push_back("Retry-After: " +
                                 std::to_string(config_.retry_after_s));
    return resp;
  }

  const std::uint64_t id = next_id_++;
  // Durability before acknowledgment: the fsync'd journal record is what
  // makes "202 Accepted" a promise that survives SIGKILL.
  journal_->append_submit(id, spec.client, spec.idem_key, spec.quota,
                          request.body);

  Campaign campaign;
  campaign.id = id;
  campaign.watchdog.set_quota(spec.quota);
  campaign.footprint = spec.config.num_vms;
  campaign.spec = std::move(spec);
  if (!campaign.spec.idem_key.empty()) {
    idem_index_[{campaign.spec.client, campaign.spec.idem_key}] = id;
  }
  campaigns_[id] = std::move(campaign);
  registry_.counter("ecocloud_server_submissions_total",
                    {{"result", "accepted"}})
      .inc();
  enqueue_locked(id);
  update_campaign_metrics_locked(campaigns_.at(id));
  dispatch_locked();
  return obs::HttpResponse::json(
      202, "{\"id\":" + std::to_string(id) + ",\"state\":\"" +
               to_string(campaigns_.at(id).state) + "\"}\n");
}

std::string CampaignServer::campaign_json_locked(
    const Campaign& campaign) const {
  const double horizon = campaign.spec.config.horizon_s;
  const double percent =
      horizon > 0.0 ? 100.0 * campaign.sim_now_s / horizon : 0.0;
  char buf[256];
  std::string out = "{\"id\":" + std::to_string(campaign.id) +
                    ",\"client\":\"" + json_escape(campaign.spec.client) +
                    "\",\"state\":\"" + to_string(campaign.state) + "\"";
  std::snprintf(buf, sizeof(buf),
                ",\"sim_time_s\":%.3f,\"horizon_s\":%.3f,"
                "\"percent\":%.3f,\"events_executed\":%llu",
                campaign.sim_now_s, horizon, percent,
                static_cast<unsigned long long>(campaign.executed_events));
  out += buf;
  const CampaignUsage& usage = campaign.watchdog.usage();
  const CampaignQuota& quota = campaign.watchdog.quota();
  std::snprintf(buf, sizeof(buf),
                ",\"usage\":{\"wall_s\":%.3f,\"events\":%llu,"
                "\"max_rss_mb\":%.1f}",
                usage.wall_s, static_cast<unsigned long long>(usage.events),
                usage.max_rss_mb);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                ",\"quota\":{\"wall_budget_s\":%.3f,\"event_budget\":%llu,"
                "\"rss_budget_mb\":%.1f}",
                quota.wall_budget_s,
                static_cast<unsigned long long>(quota.event_budget),
                quota.rss_budget_mb);
  out += buf;
  out += ",\"has_checkpoint\":";
  out += campaign.has_checkpoint ? "true" : "false";
  if (!campaign.detail.empty()) {
    out += ",\"detail\":\"" + json_escape(campaign.detail) + "\"";
  }
  if (campaign.state == CampaignState::kDone) {
    out += ",\"events_path\":\"" + json_escape(events_path(campaign.id)) +
           "\"";
  }
  out += "}";
  return out;
}

obs::HttpResponse CampaignServer::status_doc(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = campaigns_.find(id);
  if (it == campaigns_.end()) {
    return obs::HttpResponse::json(404, json_error("no such campaign"));
  }
  return obs::HttpResponse::json(200, campaign_json_locked(it->second) + "\n");
}

obs::HttpResponse CampaignServer::list_campaigns() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string body = "{\"draining\":";
  body += draining_ ? "true" : "false";
  body += ",\"queued\":" + std::to_string(queued_count_) +
          ",\"running\":" + std::to_string(running_count_) +
          ",\"campaigns\":[";
  bool first = true;
  for (const auto& [id, campaign] : campaigns_) {
    if (!first) body += ",";
    first = false;
    body += campaign_json_locked(campaign);
  }
  body += "]}\n";
  return obs::HttpResponse::json(200, body);
}

obs::HttpResponse CampaignServer::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = campaigns_.find(id);
  if (it == campaigns_.end()) {
    return obs::HttpResponse::json(404, json_error("no such campaign"));
  }
  Campaign& campaign = it->second;
  if (is_terminal(campaign.state)) {
    return obs::HttpResponse::json(
        409, json_error(std::string("campaign is already ") +
                        to_string(campaign.state)));
  }
  if (campaign.state == CampaignState::kRunning) {
    // The worker cancels at its next safe point.
    campaign.cancel_requested = true;
    return obs::HttpResponse::json(
        202, "{\"id\":" + std::to_string(id) +
                 ",\"state\":\"running\",\"cancel_requested\":true}\n");
  }
  if (campaign.state == CampaignState::kQueued) {
    remove_from_queue_locked(campaign);
  }
  set_state_locked(campaign, CampaignState::kCancelled,
                   "cancelled by client");
  refresh_state_gauges_locked();
  return obs::HttpResponse::json(
      200, "{\"id\":" + std::to_string(id) + ",\"state\":\"cancelled\"}\n");
}

obs::HttpResponse CampaignServer::resume(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (draining_) {
    return obs::HttpResponse::json(503, json_error("server is draining"));
  }
  const auto it = campaigns_.find(id);
  if (it == campaigns_.end()) {
    return obs::HttpResponse::json(404, json_error("no such campaign"));
  }
  Campaign& campaign = it->second;
  if (campaign.state != CampaignState::kEvicted) {
    return obs::HttpResponse::json(
        409, json_error(std::string("only evicted campaigns can be resumed "
                                    "(state is ") +
                        to_string(campaign.state) + ")"));
  }
  campaign.fresh_window = true;  // a resume grants a fresh budget window
  // Journaled so a crash between resume and completion replays as
  // "queued", not as "still evicted".
  set_state_locked(campaign, CampaignState::kQueued, "resumed by client");
  enqueue_locked(id);
  dispatch_locked();
  return obs::HttpResponse::json(
      202, "{\"id\":" + std::to_string(id) + ",\"state\":\"queued\"}\n");
}

// ---------------------------------------------------------------------------
// Scheduling

void CampaignServer::enqueue_locked(std::uint64_t id) {
  const Campaign& campaign = campaigns_.at(id);
  auto& queue = client_queues_[campaign.spec.client];
  if (queue.empty()) client_rr_.push_back(campaign.spec.client);
  queue.push_back(id);
  ++queued_count_;
}

void CampaignServer::remove_from_queue_locked(const Campaign& campaign) {
  const auto it = client_queues_.find(campaign.spec.client);
  if (it == client_queues_.end()) return;
  auto& queue = it->second;
  for (auto q = queue.begin(); q != queue.end(); ++q) {
    if (*q == campaign.id) {
      queue.erase(q);
      --queued_count_;
      break;
    }
  }
  if (queue.empty()) {
    for (auto r = client_rr_.begin(); r != client_rr_.end(); ++r) {
      if (*r == campaign.spec.client) {
        client_rr_.erase(r);
        break;
      }
    }
  }
}

void CampaignServer::dispatch_locked() {
  while (!draining_ && running_count_ < config_.workers &&
         queued_count_ > 0) {
    // Round-robin over clients: take the head client's oldest campaign,
    // then rotate the client to the back if it still has work — one
    // client with a deep backlog cannot starve the others.
    const std::string client = client_rr_.front();
    client_rr_.pop_front();
    auto& queue = client_queues_.at(client);
    const std::uint64_t id = queue.front();
    queue.pop_front();
    --queued_count_;
    if (!queue.empty()) client_rr_.push_back(client);
    Campaign& campaign = campaigns_.at(id);
    if (campaign.state != CampaignState::kQueued) continue;
    campaign.state = CampaignState::kRunning;  // never journaled
    // A fresh run owns its pause flags. The pressure controller can set
    // pause_requested on a "running" victim during the unlocked window
    // while the previous pause was saving its checkpoint; without this
    // reset that stale request would instantly re-pause the resumed run
    // and strand it (memory_paused was already consumed by the requeue).
    campaign.pause_requested = false;
    campaign.memory_paused = false;
    ++running_count_;
    pool_->submit([this, id] { run_campaign(id); });
  }
  refresh_state_gauges_locked();
}

void CampaignServer::finish_run_locked() {
  --running_count_;
  dispatch_locked();
  cv_.notify_all();
}

void CampaignServer::set_state_locked(Campaign& campaign, CampaignState state,
                                      const std::string& detail,
                                      bool journal) {
  campaign.state = state;
  campaign.detail = detail;
  if (journal) journal_->append_state(campaign.id, state, detail);
  update_campaign_metrics_locked(campaign);
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Campaign execution (worker threads)

void CampaignServer::run_campaign(std::uint64_t id) {
  CampaignSpec spec;
  bool resume_from_checkpoint = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    Campaign& campaign = campaigns_.at(id);
    if (draining_ || campaign.cancel_requested) {
      if (campaign.cancel_requested) {
        set_state_locked(campaign, CampaignState::kCancelled,
                         "cancelled by client");
      } else {
        // Drain won the race to this worker: put the campaign back as
        // queued (no journal record needed — a submit with no later state
        // already replays as queued).
        campaign.state = CampaignState::kQueued;
        enqueue_locked(id);
      }
      finish_run_locked();
      return;
    }
    spec = campaign.spec;
    resume_from_checkpoint = campaign.has_checkpoint;
  }

  const std::string ckpt = checkpoint_path(id);
  try {
    // The run is rebuilt from the config on every (re)start; mutable state comes back
    // from the checkpoint, a run-daily snapshot with the event log in it, so an
    // evicted-then-resumed campaign logs the bytes of an uninterrupted run.
    par::ShardedDailyRun run(spec.config, {.shards = 1, .threads = 1});
    run.set_record_events(true);
    if (resume_from_checkpoint) run.restore_snapshot(ckpt);
    run.start();

    {
      std::lock_guard<std::mutex> lock(mutex_);
      Campaign& campaign = campaigns_.at(id);
      campaign.sim_now_s = run.now();
      campaign.executed_events = run.executed_events();
      if (campaign.fresh_window) {
        campaign.watchdog.begin_window(campaign.executed_events);
        campaign.fresh_window = false;
      }
    }

    // Slice loop: every boundary is a safe point. Checkpoint saves only
    // serialize state — they schedule nothing — so neither slicing nor
    // checkpointing perturbs the event stream.
    std::size_t slices_since_checkpoint = 0;
    bool done = false;
    while (!done) {
      const auto slice_start = Clock::now();
      done = run.run_slice(run.now() + config_.slice_s);
      const double slice_wall =
          std::chrono::duration<double>(Clock::now() - slice_start).count();

      std::unique_lock<std::mutex> lock(mutex_);
      Campaign& campaign = campaigns_.at(id);
      campaign.sim_now_s = run.now();
      campaign.executed_events = run.executed_events();
      campaign.watchdog.record(slice_wall, campaign.executed_events,
                               config_.rss_probe());
      update_campaign_metrics_locked(campaign);
      if (done) break;

      if (campaign.cancel_requested) {
        set_state_locked(campaign, CampaignState::kCancelled,
                         "cancelled by client");
        finish_run_locked();
        return;
      }
      // Over budget, or asked to pause (drain, memory pressure): park with a checkpoint.
      const std::string violation = campaign.watchdog.violation();
      if (!violation.empty() || campaign.pause_requested) {
        campaign.pause_requested = false;
        lock.unlock();
        run.save_snapshot(ckpt);  // serialize outside the server lock
        lock.lock();
        Campaign& parked = campaigns_.at(id);
        parked.has_checkpoint = true;
        registry_.counter("ecocloud_server_checkpoints_total").inc();
        if (!violation.empty()) {
          registry_.counter("ecocloud_server_evictions_total", {{"reason", "quota"}})
              .inc();
          set_state_locked(parked, CampaignState::kEvicted, violation);
        } else {
          // Read the reason after relocking: a pressure tick during the
          // save may have re-marked this still-"running" campaign, and the
          // label must agree with the memory_paused flag the requeue path
          // keys on.
          const bool memory = parked.memory_paused;
          if (memory) {
            registry_.counter("ecocloud_server_evictions_total", {{"reason", "memory"}})
                .inc();
          }
          set_state_locked(parked, CampaignState::kPaused,
                           memory ? "paused under memory pressure"
                                  : "paused for drain");
        }
        finish_run_locked();
        return;
      }
      lock.unlock();

      if (config_.checkpoint_every_slices > 0 &&
          ++slices_since_checkpoint >= config_.checkpoint_every_slices) {
        slices_since_checkpoint = 0;
        run.save_snapshot(ckpt);
        std::lock_guard<std::mutex> guard(mutex_);
        campaigns_.at(id).has_checkpoint = true;
        registry_.counter("ecocloud_server_checkpoints_total").inc();
      }
    }
    run.finish();

    // Atomic event-log publication: tmp + rename, same discipline as
    // snapshots, so a crash mid-write never leaves a half CSV behind.
    const std::string out_path = events_path(id);
    const std::string tmp_path = out_path + ".tmp";
    {
      std::ofstream out(tmp_path);
      util::require(out.good(), "cannot open " + tmp_path);
      run.write_events_csv(out);
      out.flush();
      util::require(out.good(), "cannot write " + tmp_path);
    }
    if (std::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
      std::remove(tmp_path.c_str());
      throw std::runtime_error("cannot rename " + tmp_path + " to " +
                               out_path);
    }
    std::remove(ckpt.c_str());  // the run is complete; the log is the artifact

    std::lock_guard<std::mutex> lock(mutex_);
    Campaign& campaign = campaigns_.at(id);
    campaign.has_checkpoint = false;
    set_state_locked(campaign, CampaignState::kDone, "");
    finish_run_locked();
  } catch (const std::exception& ex) {
    std::lock_guard<std::mutex> lock(mutex_);
    Campaign& campaign = campaigns_.at(id);
    set_state_locked(campaign, CampaignState::kFailed, ex.what());
    finish_run_locked();
  }
}

// ---------------------------------------------------------------------------
// Memory pressure

void CampaignServer::pressure_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_pressure_) {
    pressure_cv_.wait_for(
        lock, std::chrono::milliseconds(config_.pressure_poll_ms));
    if (stop_pressure_ || draining_) continue;
    if (config_.rss_high_mb <= 0.0) continue;

    lock.unlock();
    const double rss = config_.rss_probe();
    lock.lock();
    if (stop_pressure_ || draining_) continue;

    if (rss >= config_.rss_high_mb) {
      memory_pressure_ = true;
      // Checkpoint-and-pause the largest running campaign that is not
      // already on its way out; one victim per poll tick, so pressure
      // relief is incremental rather than a stampede.
      Campaign* victim = nullptr;
      for (auto& [id, campaign] : campaigns_) {
        if (campaign.state != CampaignState::kRunning) continue;
        if (campaign.pause_requested || campaign.cancel_requested) continue;
        if (victim == nullptr || campaign.footprint > victim->footprint) {
          victim = &campaign;
        }
      }
      if (victim != nullptr) {
        victim->pause_requested = true;
        victim->memory_paused = true;
      }
    } else if (memory_pressure_ && rss <= config_.rss_low_mb) {
      memory_pressure_ = false;
      // Pressure cleared: every memory-paused campaign re-enters the
      // queue and resumes from its checkpoint, bit-identically.
      for (auto& [id, campaign] : campaigns_) {
        if (campaign.state == CampaignState::kPaused &&
            campaign.memory_paused) {
          campaign.memory_paused = false;
          campaign.state = CampaignState::kQueued;
          enqueue_locked(id);
        }
      }
      dispatch_locked();
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics

void CampaignServer::update_campaign_metrics_locked(const Campaign& campaign) {
  const obs::Labels labels = {{"campaign", std::to_string(campaign.id)}};
  registry_
      .gauge("ecocloud_campaign_sim_time_seconds", labels,
             "Simulated seconds completed per campaign")
      .set(campaign.sim_now_s);
  registry_
      .gauge("ecocloud_campaign_events_executed", labels,
             "Simulation events executed per campaign")
      .set(static_cast<double>(campaign.executed_events));
  registry_
      .gauge("ecocloud_campaign_state", labels,
             "Campaign state code (0 queued, 1 running, 2 paused, "
             "3 evicted, 4 done, 5 failed, 6 cancelled)")
      .set(static_cast<double>(static_cast<std::uint8_t>(campaign.state)));
}

void CampaignServer::refresh_state_gauges_locked() {
  std::size_t counts[7] = {};
  for (const auto& [id, campaign] : campaigns_) {
    counts[static_cast<std::uint8_t>(campaign.state)]++;
  }
  for (std::uint8_t s = 0; s <= 6; ++s) {
    registry_
        .gauge("ecocloud_server_campaigns",
               {{"state", to_string(static_cast<CampaignState>(s))}},
               "Campaigns per lifecycle state")
        .set(static_cast<double>(counts[s]));
  }
}

}  // namespace ecocloud::srv
