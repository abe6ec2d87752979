#include "ecocloud/srv/campaign.hpp"

#include <cstdio>
#include <optional>
#include <sstream>

#include "ecocloud/scenario/config_io.hpp"
#include "ecocloud/util/key_value.hpp"
#include "ecocloud/util/string_util.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::srv {

const char* to_string(CampaignState state) {
  switch (state) {
    case CampaignState::kQueued: return "queued";
    case CampaignState::kRunning: return "running";
    case CampaignState::kPaused: return "paused";
    case CampaignState::kEvicted: return "evicted";
    case CampaignState::kDone: return "done";
    case CampaignState::kFailed: return "failed";
    case CampaignState::kCancelled: return "cancelled";
  }
  return "unknown";
}

bool is_terminal(CampaignState state) {
  return state == CampaignState::kDone || state == CampaignState::kFailed ||
         state == CampaignState::kCancelled;
}

std::string Watchdog::violation() const {
  char buf[160];
  if (quota_.wall_budget_s > 0.0 && usage_.wall_s > quota_.wall_budget_s) {
    std::snprintf(buf, sizeof(buf),
                  "wall-clock budget exceeded: %.1f s used of %.1f s",
                  usage_.wall_s, quota_.wall_budget_s);
    return buf;
  }
  if (quota_.event_budget > 0 && usage_.events > quota_.event_budget) {
    std::snprintf(buf, sizeof(buf),
                  "event budget exceeded: %llu events of %llu",
                  static_cast<unsigned long long>(usage_.events),
                  static_cast<unsigned long long>(quota_.event_budget));
    return buf;
  }
  if (quota_.rss_budget_mb > 0.0 && usage_.max_rss_mb > quota_.rss_budget_mb) {
    std::snprintf(buf, sizeof(buf),
                  "RSS budget exceeded: %.0f MB observed of %.0f MB",
                  usage_.max_rss_mb, quota_.rss_budget_mb);
    return buf;
  }
  return {};
}

namespace {

/// Does this line (comments stripped, trimmed) open a section? Returns
/// the section name, or nullopt for non-header lines.
std::optional<std::string> section_of(const std::string& raw) {
  std::string line = raw;
  for (const char* marker : {"#", ";"}) {
    const auto pos = line.find(marker);
    if (pos != std::string::npos) line.erase(pos);
  }
  const std::string trimmed = util::trim(line);
  if (trimmed.size() >= 2 && trimmed.front() == '[' && trimmed.back() == ']') {
    return util::trim(trimmed.substr(1, trimmed.size() - 2));
  }
  return std::nullopt;
}

/// Is this a top-level `campaign.key = ...` assignment line?
bool is_campaign_assignment(const std::string& raw) {
  const std::string trimmed = util::trim(raw);
  return trimmed.rfind("campaign.", 0) == 0;
}

/// Blank every campaign.* line to a bare comment, preserving line count
/// and therefore the line numbers in any scenario-config error.
std::string blank_campaign_lines(const std::string& body) {
  std::istringstream in(body);
  std::string out;
  std::string line;
  bool in_campaign_section = false;
  while (std::getline(in, line)) {
    const auto section = section_of(line);
    if (section) in_campaign_section = (*section == "campaign");
    const bool blank = (section && *section == "campaign") ||
                       (!section && in_campaign_section) ||
                       (!section && is_campaign_assignment(line));
    out += blank ? "#" : line;
    out += '\n';
  }
  return out;
}

}  // namespace

CampaignSpec parse_submission(const std::string& body) {
  util::require(!body.empty(), "empty submission body");

  // First pass over the raw body: pull the campaign.* lease keys out with
  // their line numbers intact. Scenario keys are deliberately left
  // "unused" here — the second pass owns their validation.
  const auto kv = util::KeyValueConfig::parse_string(body);
  CampaignSpec spec;
  spec.client = kv.get_string("campaign.client", spec.client);
  spec.idem_key = kv.get_string("campaign.key", "");
  spec.quota.wall_budget_s = kv.get_double("campaign.wall_budget_s", 0.0);
  const long long event_budget = kv.get_int("campaign.event_budget", 0);
  spec.quota.event_budget = static_cast<std::uint64_t>(event_budget);
  spec.quota.rss_budget_mb = kv.get_double("campaign.rss_budget_mb", 0.0);
  util::require(!spec.client.empty(), "campaign.client must not be empty");
  util::require(spec.quota.wall_budget_s >= 0.0,
                "campaign.wall_budget_s must be >= 0");
  util::require(event_budget >= 0, "campaign.event_budget must be >= 0");
  util::require(spec.quota.rss_budget_mb >= 0.0,
                "campaign.rss_budget_mb must be >= 0");
  for (const auto& key : kv.unused_keys()) {
    if (key.rfind("campaign.", 0) == 0) {
      throw std::invalid_argument(
          "unknown campaign key '" + key + "' (line " +
          std::to_string(kv.line_of(key)) + ")");
    }
  }

  // Second pass: the body with campaign.* lines blanked in place must be
  // a valid daily config. Unknown keys and bad values throw line-numbered
  // std::invalid_argument from the KeyValueConfig layer, and those line
  // numbers match the client's submission because blanking preserved
  // every line.
  spec.config_text = blank_campaign_lines(body);
  std::istringstream scenario_in(spec.config_text);
  spec.config = scenario::load_daily_config(scenario_in);

  // The server owns robustness: it checkpoints between slices, and a
  // campaign's own [checkpoint]/[audit]/[watchdog] sections are dropped.
  spec.config.run = {};
  return spec;
}

}  // namespace ecocloud::srv
