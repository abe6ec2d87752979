// Server window of the traced scaleup_single run: an in-process
// srv::CampaignServer driven over real HTTP by one open-loop client thread.
// Campaign submissions and status / list / scrape GETs go out on a fixed
// schedule; every request is timed from when it was due, so a stall shows
// up in the latency of the requests queued behind it. It yields the srv and
// obs per-layer metrics.

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "drivers.hpp"
#include "ecocloud/metrics/event_log.hpp"
#include "ecocloud/scenario/config_io.hpp"
#include "ecocloud/scenario/scenario.hpp"
#include "ecocloud/srv/journal.hpp"
#include "ecocloud/srv/server.hpp"
#include "pinned.hpp"

namespace perfbench {

using namespace ecocloud;

namespace {

// Load shape. Two workers execute paper campaigns of 0.6-1.2 s each,
// depending on how busy the host is. One submission per second stays below
// saturation even at the slow end: at 1.5 per second, 1.2 s campaigns
// queued and latency turned into queueing delay.
constexpr double kSubmitPerS = 1.0;
constexpr double kSlotS = 0.010;          // one GET slot every 10 ms
// Of every 20 slots, slot 5 sends GET /campaigns and slot 15 GET /metrics;
// the others poll the status of a campaign in flight.
constexpr std::size_t kSlotCycle = 20;
constexpr double kDrainTimeoutS = 60.0;
constexpr auto kSpinWindow = std::chrono::microseconds(300);
constexpr std::size_t kWorkers = 2;
// The server starts over a journal of this many finished campaigns, so
// start() does a real journal replay and the list and scrape documents
// carry a history, as on a long-lived server.
constexpr std::size_t kHistory = 256;

// ---------------------------------------------------------------------------
// Minimal HTTP/1.1 client: one connection per request (the server answers
// with Connection: close).

struct HttpReply {
  int status = 0;  ///< 0 on a transport error
  std::string body;
};

HttpReply http(std::uint16_t port, const char* method, const std::string& target,
               const std::string& body = {}) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return reply;
  }
  std::string req = std::string(method) + " " + target +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
                    "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return reply;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (raw.rfind("HTTP/1.", 0) != 0 || raw.size() < 12) return reply;
  reply.status = std::atoi(raw.c_str() + 9);
  const auto split = raw.find("\r\n\r\n");
  if (split != std::string::npos) reply.body = raw.substr(split + 4);
  return reply;
}

/// Value after "key": in a flat JSON document (numbers and strings only).
std::string json_field(const std::string& doc, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = doc.find(needle);
  if (at == std::string::npos) return {};
  auto begin = at + needle.size();
  if (begin < doc.size() && doc[begin] == '"') {
    const auto end = doc.find('"', begin + 1);
    return doc.substr(begin + 1, end - begin - 1);
  }
  const auto end = doc.find_first_of(",}", begin);
  return doc.substr(begin, end - begin);
}

// ---------------------------------------------------------------------------
// Campaign inputs

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Scenario part of campaign i's submission: the paper's 400 servers /
/// 6,000 VMs / 48 h with a seed drawn from the benchmark seed.
std::string campaign_scenario_text(std::uint64_t bench_seed, std::size_t i) {
  const std::uint64_t seed = splitmix64(bench_seed * 1000003ULL + i) & 0x7fffffffULL;
  return "servers = 400\nvms = 6000\nhorizon_hours = 48\nseed = " + std::to_string(seed) +
         "\n";
}

std::string submission_body(std::uint64_t bench_seed, std::size_t i) {
  return campaign_scenario_text(bench_seed, i) + "campaign.client = perfbench\n";
}

/// Digest of the event log a one-shot run of the same config writes.
std::uint64_t one_shot_digest(const std::string& scenario_text) {
  std::istringstream in(scenario_text);
  scenario::DailyConfig config = scenario::load_daily_config(in);
  config.run = {};
  scenario::DailyScenario daily(config);
  metrics::EventLog log;
  log.attach(*daily.ecocloud());
  daily.run();
  std::ostringstream out;
  log.write_csv(out);
  return fnv1a64(out.str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// One measured window

struct Tracked {
  std::size_t index = 0;
  std::uint64_t id = 0;
  Clock::time_point due;
  bool accepted = false;
  bool terminal = false;
  std::string state;
  double latency_s = 0.0;
  double wall_s = 0.0;
  std::string events_path;
};

struct Window {
  std::vector<Tracked> campaigns;
  std::vector<double> api_ms, status_ms, list_ms, metrics_ms, submit_ms;
  std::vector<double> metrics_bytes;
  double gen_lag_ms_max = 0.0;
  std::uint64_t refused = 0;
};

/// Journal of kHistory submitted-and-done campaigns (ids 1..kHistory).
void write_history(const std::string& path, std::uint64_t bench_seed) {
  std::filesystem::remove(path);
  srv::SubmissionJournal journal(path);
  for (std::uint64_t id = 1; id <= kHistory; ++id) {
    journal.append_submit(id, "history", "", srv::CampaignQuota{},
                          submission_body(bench_seed, 100000 + id));
    journal.append_state(id, srv::CampaignState::kDone);
  }
}

std::unique_ptr<srv::CampaignServer> start_server(const std::string& dir,
                                                  const std::string& history) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/state");
  std::filesystem::copy_file(history, dir + "/state/journal.bin");
  srv::ServerConfig config;
  config.port = 0;  // ephemeral, loopback
  config.workers = kWorkers;
  config.data_dir = dir + "/state";
  config.slice_s = 1800.0;
  config.checkpoint_every_slices = 4;
  auto server = std::make_unique<srv::CampaignServer>(config);
  ScopedSpan span("srv.start");
  server->start();
  return server;
}

Window run_window(const Options& opt, const std::string& dir, Result& res) {
  Window w;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string history = dir + "/history.bin";
  write_history(history, opt.seed);
  std::unique_ptr<srv::CampaignServer> server = start_server(dir + "/server", history);
  res.check(server->recovered_campaigns() == kHistory,
            "journal replay recovered " + std::to_string(server->recovered_campaigns()) +
                " of " + std::to_string(kHistory) + " campaigns");
  const std::uint16_t port = server->port();

  const auto n = static_cast<std::size_t>(
      std::max(4.0, std::round(opt.seconds * kSubmitPerS)));
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  w.campaigns.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.campaigns[i].index = i;
    w.campaigns[i].due = at(static_cast<double>(i) / kSubmitPerS);
  }
  const auto deadline = at(static_cast<double>(n) / kSubmitPerS + kDrainTimeoutS);

  std::vector<std::size_t> in_flight;
  std::size_t next_submit = 0, next_slot = 0, rr = 0;
  while (next_submit < n || !in_flight.empty()) {
    const Clock::time_point submit_due =
        next_submit < n ? w.campaigns[next_submit].due : Clock::time_point::max();
    const Clock::time_point slot_due = at(static_cast<double>(next_slot) * kSlotS);
    const bool is_submit = submit_due <= slot_due;
    const Clock::time_point due = is_submit ? submit_due : slot_due;
    if (due > deadline) break;
    // Sleep to just short of the due time, then spin: a sleeping thread
    // wakes up to ~0.1 ms late on a virtual CPU, which would otherwise land
    // in every sub-millisecond GET latency.
    std::this_thread::sleep_until(due - kSpinWindow);
    while (Clock::now() < due) {
    }
    const auto sent = Clock::now();
    w.gen_lag_ms_max = std::max(
        w.gen_lag_ms_max, std::chrono::duration<double>(sent - due).count() * 1e3);

    if (is_submit) {
      Tracked& c = w.campaigns[next_submit++];
      HttpReply r;
      {
        ScopedSpan span("srv.submit");
        r = http(port, "POST", "/campaigns", submission_body(opt.seed, c.index));
      }
      const auto done = Clock::now();
      w.submit_ms.push_back(std::chrono::duration<double>(done - sent).count() * 1e3);
      if (r.status == 429) ++w.refused;
      res.check(r.status == 202, "POST /campaigns answered " + std::to_string(r.status));
      if (r.status == 202) {
        c.accepted = true;
        c.id = std::stoull(json_field(r.body, "id"));
        in_flight.push_back(c.index);
      } else {
        c.terminal = true;
        c.state = "refused";
      }
      continue;
    }

    const std::size_t slot = next_slot++;
    std::string target;
    const char* span_name = "srv.status";
    std::size_t polled = n;
    if (slot % kSlotCycle == 5) {
      target = "/campaigns";
      span_name = "obs.list";
    } else if (slot % kSlotCycle == 15) {
      target = "/metrics";
      span_name = "obs.metrics";
    } else if (!in_flight.empty()) {
      polled = in_flight[rr++ % in_flight.size()];
      target = "/campaigns/" + std::to_string(w.campaigns[polled].id);
    } else {
      continue;  // nothing in flight: an idle slot sends nothing
    }
    HttpReply r;
    {
      ScopedSpan span(span_name);
      r = http(port, "GET", target);
    }
    const auto done = Clock::now();
    const double ms = std::chrono::duration<double>(done - due).count() * 1e3;
    w.api_ms.push_back(ms);
    res.check(r.status == 200, "GET " + target + " answered " + std::to_string(r.status));
    if (target == "/campaigns") {
      w.list_ms.push_back(ms);
    } else if (target == "/metrics") {
      w.metrics_ms.push_back(ms);
      w.metrics_bytes.push_back(static_cast<double>(r.body.size()));
    } else {
      w.status_ms.push_back(ms);
      Tracked& c = w.campaigns[polled];
      const std::string state = json_field(r.body, "state");
      if (state == "done" || state == "failed" || state == "cancelled" ||
          state == "evicted" || state == "paused") {
        c.terminal = true;
        c.state = state;
        c.latency_s = std::chrono::duration<double>(done - c.due).count();
        c.wall_s = std::atof(json_field(r.body, "wall_s").c_str());
        c.events_path = json_field(r.body, "events_path");
        in_flight.erase(std::find(in_flight.begin(), in_flight.end(), polled));
      }
    }
  }
  for (Tracked& c : w.campaigns) {
    if (c.accepted) {
      res.check(c.state == "done",
                "campaign " + std::to_string(c.id) + " ended " +
                    (c.terminal ? c.state : std::string("unfinished")));
    }
    if (!c.terminal) c.latency_s = seconds_since(c.due);  // a miss
  }
  {
    ScopedSpan span("srv.drain");
    server.reset();  // drains: joins the workers and the HTTP thread
  }
  return w;
}

/// Compare every done campaign's event log with a one-shot run of the same
/// config (and with the pinned digests when the seed has them).
void verify_event_logs(const Options& opt, const Window& w, Result& res) {
  ScopedSpan span("verify.one_shot");
  std::vector<std::uint64_t> reference(w.campaigns.size(), 0);
  std::vector<std::string> errors(w.campaigns.size());
  std::vector<std::thread> pool;
  const std::size_t threads = std::min<std::size_t>(4, w.campaigns.size());
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < w.campaigns.size(); i += threads) {
        if (w.campaigns[i].state != "done") continue;
        try {
          reference[i] = one_shot_digest(campaign_scenario_text(opt.seed, i));
        } catch (const std::exception& ex) {
          errors[i] = ex.what();
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  const auto pin = find_pin(kCampaignPins, opt.seed);
  for (const Tracked& c : w.campaigns) {
    if (c.state != "done") continue;
    if (!errors[c.index].empty()) {
      res.check(false, "one-shot reference run " + std::to_string(c.index) +
                           " threw: " + errors[c.index]);
      continue;
    }
    const std::uint64_t got = fnv1a64(read_file(c.events_path));
    res.check(got == reference[c.index],
              "campaign " + std::to_string(c.id) + " event log " + hex64(got) +
                  " differs from the one-shot run " + hex64(reference[c.index]));
    if (pin && c.index < std::size(pin->digests)) {
      res.check(got == pin->digests[c.index],
                "campaign " + std::to_string(c.index) + " event log " + hex64(got) +
                    " differs from the pinned " + hex64(pin->digests[c.index]));
    }
  }
  std::printf("# server window event-log digests:");
  for (std::size_t i = 0; i < std::min<std::size_t>(4, reference.size()); ++i) {
    std::printf(" 0x%sULL", hex64(reference[i]).c_str());
  }
  std::printf("\n");
}

double journal_append_ms(const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/driver_journal.bin";
  std::filesystem::remove(path);
  const std::string body = submission_body(kDefaultSeed, 0);
  std::vector<double> ms;
  {
    srv::SubmissionJournal journal(path);
    for (std::uint64_t id = 1; id <= 20; ++id) {
      const auto t0 = Clock::now();
      journal.append_submit(id, "perfbench", "", srv::CampaignQuota{}, body);
      journal.flush();
      ms.push_back(seconds_since(t0) * 1e3);
    }
  }
  std::filesystem::remove(path);
  return median(ms);
}

/// srv and obs layer metrics of one window.
void add_server_layers(const Window& t, const std::string& dir, Result& res) {
  std::vector<double> exec_s, wait_s;
  for (const Tracked& c : t.campaigns) {
    exec_s.push_back(c.wall_s);
    wait_s.push_back(c.latency_s - c.wall_s);
  }
  res.layer("srv.submit_ms_p50", quantile(t.submit_ms, 0.5), "ms");
  res.layer("srv.submit_ms_p99", quantile(t.submit_ms, 0.99), "ms");
  res.layer("srv.exec_s_p50", quantile(exec_s, 0.5), "s");
  res.layer("srv.queue_wait_s_p90", quantile(wait_s, 0.9), "s");
  res.layer("srv.refused", static_cast<double>(t.refused), "count");
  res.layer("srv.status_ms_p99", quantile(t.status_ms, 0.99), "ms");
  res.layer("obs.api_ms_p99", quantile(t.api_ms, 0.99), "ms");
  res.layer("obs.metrics_ms_p99", quantile(t.metrics_ms, 0.99), "ms");
  res.layer("obs.metrics_bytes", median(t.metrics_bytes), "bytes");
  res.layer("obs.list_ms_p99", quantile(t.list_ms, 0.99), "ms");
  res.layer("gen_lag_ms_max", t.gen_lag_ms_max, "ms");
  res.layer("srv.journal_append_ms", journal_append_ms(dir), "ms");
}

}  // namespace

void measure_server_layers(const Options& opt, double seconds, Result& res) {
  Options window = opt;
  window.seconds = seconds;
  const std::string dir = opt.work_dir + "/server_layers";
  const Window t = run_window(window, dir, res);
  verify_event_logs(window, t, res);
  std::printf("# server window: %zu campaigns, %llu refused, %zu GETs, "
              "gen lag max %.2f ms\n",
              t.campaigns.size(), static_cast<unsigned long long>(t.refused),
              t.api_ms.size(), t.gen_lag_ms_max);
  add_server_layers(t, dir, res);
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
