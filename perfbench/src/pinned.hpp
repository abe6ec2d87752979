#pragma once

/// \file pinned.hpp
/// \brief Outputs pinned per seed. The default seed is the one every
///        ecoCloud daily scenario ships with; the held-out seed exists so a
///        later performance claim can be rechecked on a seed that was not
///        looked at while the change was written.

#include <cstddef>
#include <cstdint>
#include <optional>

namespace perfbench {

inline constexpr std::uint64_t kDefaultSeed = 20130520;
inline constexpr std::uint64_t kHeldOutSeed = 424242;

/// Engine outputs that must match exactly (energy to 1 Wh).
struct EnginePin {
  std::uint64_t seed;
  std::uint64_t events;
  std::uint64_t migrations;
  double energy_kwh;
};

inline constexpr EnginePin kScaleupPins[] = {
    {kDefaultSeed, 77'864'311, 87'420, 20'010.942},
    {kHeldOutSeed, 77'864'235, 86'661, 20'096.904},
};

inline constexpr EnginePin kPlanetPins[] = {
    {kDefaultSeed, 144'339'436, 150'256, 23'181.720},
    {kHeldOutSeed, 144'333'492, 146'394, 23'186.691},
};

/// FNV-1a digests of the event-log CSV of the first campaigns the server
/// window of a traced run submits (campaign i's config depends only on the
/// benchmark seed and i, so the same campaigns recur on every run).
struct CampaignPin {
  std::uint64_t seed;
  std::uint64_t digests[4];
};

inline constexpr CampaignPin kCampaignPins[] = {
    {kDefaultSeed,
     {0x366cb07477537fc1ULL, 0xc39b3001568d3cf7ULL, 0xe3e356689cbce11dULL,
      0xf91b533bbd8136e1ULL}},
    {kHeldOutSeed,
     {0x91e754eae92058acULL, 0x5ef89928bd4e10caULL, 0xefc580e5e8b533eeULL,
      0x1a5ff1986bbabecbULL}},
};

template <typename Pin, std::size_t N>
std::optional<Pin> find_pin(const Pin (&pins)[N], std::uint64_t seed) {
  for (const Pin& p : pins) {
    if (p.seed == seed) return p;
  }
  return std::nullopt;
}

}  // namespace perfbench
