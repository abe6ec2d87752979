#pragma once

/// \file server.hpp
/// \brief The campaign server: a crash-tolerant sim-as-a-service control
/// plane (DESIGN.md Sec. 16).
///
/// CampaignServer multiplexes many scenario runs onto one resident
/// process. Robustness is the organizing principle; every mechanism here
/// exists to survive something:
///
///  * **bad clients** — submissions are parsed and validated before
///    admission (400 with the client's own line numbers), bounded by a
///    submission queue (429 + Retry-After when full), and scheduled
///    fairly FIFO-per-client so one chatty client cannot starve others;
///  * **runaway campaigns** — wall-clock/event/RSS budgets declared at
///    submit time are enforced by a per-campaign Watchdog at every slice
///    boundary; an over-budget campaign is checkpointed and marked
///    `evicted`, never killed silently, and an explicit resume grants a
///    fresh budget window;
///  * **memory pressure** — when process RSS crosses the high-water mark
///    the largest running campaign is checkpointed to disk and paused,
///    and transparently re-queued (bit-identical resume) once RSS falls
///    below the low-water mark;
///  * **its own death** — every accepted submission is journaled (fsync'd
///    append, torn-tail tolerant) before the client is acknowledged, so a
///    SIGKILL'd server replays the journal on restart and resumes (from
///    the latest periodic checkpoint) or restarts every accepted campaign
///    exactly once;
///  * **orderly shutdown** — drain() stops admission (503), checkpoints
///    every in-flight campaign at its next slice boundary, flushes the
///    journal, and returns only when no worker is running.
///
/// Execution model: campaigns run on a util::ThreadPool, each a K=1 par::ShardedDailyRun
/// (run-daily's driver) advanced in sim-time slices via ShardedDailyRun::run_slice. Slice
/// boundaries are the safe points — quota checks, pause/cancel requests, and periodic
/// checkpoints all happen between slices, and slicing is invisible to the event stream,
/// so a campaign's event log is byte-identical to the same scenario run in one shot by
/// the CLI (pinned by tests and CI). A campaign checkpoint is a run-daily snapshot, so
/// `run-daily --resume-from` can finish it.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ecocloud/obs/http_server.hpp"
#include "ecocloud/obs/metric_registry.hpp"
#include "ecocloud/srv/campaign.hpp"
#include "ecocloud/srv/journal.hpp"
#include "ecocloud/util/thread_pool.hpp"

namespace ecocloud::srv {

struct ServerConfig {
  /// TCP port for the campaign API (0 binds an ephemeral port).
  std::uint16_t port = 0;
  /// Concurrent campaign executions (thread-pool width), >= 1.
  std::size_t workers = 2;
  /// Maximum campaigns waiting in the submission queue (running campaigns
  /// do not count); submissions beyond it get 429.
  std::size_t queue_capacity = 8;
  /// Journal, checkpoints, and event logs live here; created on start().
  std::string data_dir = "campaigns";
  /// Retry-After header value on 429 responses.
  int retry_after_s = 5;
  /// Sim-seconds advanced per slice; slice boundaries are the safe points
  /// for quota enforcement, pause, cancel, and checkpointing.
  double slice_s = 1800.0;
  /// Periodic durability: checkpoint a running campaign every N slices
  /// (0 disables; pause/evict still checkpoint). Bounds how much progress
  /// a SIGKILL can cost.
  std::size_t checkpoint_every_slices = 4;
  /// Memory-pressure high-water mark in MB (0 disables eviction).
  double rss_high_mb = 0.0;
  /// Pressure clears below this; defaults to 0.9 * rss_high_mb when 0.
  double rss_low_mb = 0.0;
  /// RSS sampler; defaults to obs::current_rss_mb. Injectable so tests
  /// can drive the pressure controller deterministically.
  std::function<double()> rss_probe;
  /// Pressure-controller poll interval.
  int pressure_poll_ms = 100;
  obs::HttpLimits http_limits;
};

/// HTTP API (all JSON unless noted):
///   POST   /campaigns              submit a config body -> 202 {id,state}
///                                  (400 malformed, 429 over capacity,
///                                   503 draining, 200 duplicate key)
///   GET    /campaigns              list every campaign + server state
///   GET    /campaigns/<id>         one campaign's status document
///   POST   /campaigns/<id>/resume  re-queue an evicted campaign with a
///                                  fresh budget window
///   DELETE /campaigns/<id>         cancel (from any non-terminal state)
///   GET    /metrics                Prometheus text exposition
///   GET    /healthz                "ok"
class CampaignServer {
 public:
  explicit CampaignServer(ServerConfig config);
  ~CampaignServer();

  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  /// Create the data dir, open + replay the journal (re-queueing every
  /// non-terminal campaign), start the workers, the pressure controller,
  /// and the HTTP listener. Throws on unrecoverable setup failure.
  void start();

  /// Graceful shutdown: stop admission (new submits get 503 while status
  /// endpoints keep answering), request a pause at the next safe point of
  /// every running campaign, wait until no worker is running, stop the
  /// pool, flush the journal, then stop the HTTP listener. Idempotent.
  void drain();

  [[nodiscard]] bool draining() const;

  /// Bound API port (valid after start()).
  [[nodiscard]] std::uint16_t port() const;

  /// Process one API request. The HTTP listener dispatches here; tests
  /// call it directly to exercise the control plane in-process.
  [[nodiscard]] obs::HttpResponse handle(const obs::HttpRequest& request);

  /// Block until nothing is queued or running (paused/evicted/terminal
  /// campaigns do not count), or \p timeout_s elapses. Returns true when
  /// idle was reached.
  [[nodiscard]] bool wait_idle(double timeout_s);

  /// Current state of a campaign; nullopt for unknown ids.
  [[nodiscard]] std::optional<CampaignState> state_of(std::uint64_t id) const;

  /// Campaigns recovered from the journal by start().
  [[nodiscard]] std::size_t recovered_campaigns() const;

  /// Where campaign \p id's event log lands when it completes.
  [[nodiscard]] std::string events_path(std::uint64_t id) const;
  /// Where campaign \p id's checkpoint snapshot lives.
  [[nodiscard]] std::string checkpoint_path(std::uint64_t id) const;

 private:
  struct Campaign {
    std::uint64_t id = 0;
    CampaignSpec spec;
    CampaignState state = CampaignState::kQueued;
    std::string detail;
    Watchdog watchdog;
    /// True until the next run opens a budget window (set at admission,
    /// explicit resume, and server restart).
    bool fresh_window = true;
    double sim_now_s = 0.0;
    std::uint64_t executed_events = 0;
    bool has_checkpoint = false;
    bool pause_requested = false;
    bool memory_paused = false;
    bool cancel_requested = false;
    /// Size proxy for memory-pressure victim selection.
    std::size_t footprint = 0;
  };

  // All *_locked members require mutex_ held.
  obs::HttpResponse submit(const obs::HttpRequest& request);
  obs::HttpResponse status_doc(std::uint64_t id);
  obs::HttpResponse list_campaigns();
  obs::HttpResponse cancel(std::uint64_t id);
  obs::HttpResponse resume(std::uint64_t id);
  obs::HttpResponse metrics_text();

  void run_campaign(std::uint64_t id);
  void recover_locked();
  void enqueue_locked(std::uint64_t id);
  void remove_from_queue_locked(const Campaign& campaign);
  void dispatch_locked();
  void set_state_locked(Campaign& campaign, CampaignState state,
                        const std::string& detail, bool journal = true);
  void finish_run_locked();
  void update_campaign_metrics_locked(const Campaign& campaign);
  void refresh_state_gauges_locked();
  [[nodiscard]] std::string campaign_json_locked(const Campaign& campaign) const;
  void pressure_loop();

  ServerConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Campaign> campaigns_;
  /// (client, idempotency key) -> campaign id.
  std::map<std::pair<std::string, std::string>, std::uint64_t> idem_index_;
  /// Fair scheduling: one FIFO per client, clients served round-robin.
  std::map<std::string, std::deque<std::uint64_t>> client_queues_;
  std::deque<std::string> client_rr_;
  std::size_t queued_count_ = 0;
  std::size_t running_count_ = 0;
  std::uint64_t next_id_ = 1;
  bool draining_ = false;
  bool started_ = false;
  std::size_t recovered_ = 0;

  std::optional<SubmissionJournal> journal_;
  std::optional<util::ThreadPool> pool_;
  std::optional<obs::HttpServer> http_;
  obs::MetricRegistry registry_;

  std::thread pressure_thread_;
  std::condition_variable pressure_cv_;
  bool stop_pressure_ = false;
  bool memory_pressure_ = false;
};

}  // namespace ecocloud::srv
