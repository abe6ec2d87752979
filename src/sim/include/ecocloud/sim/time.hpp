#pragma once

/// \file time.hpp
/// \brief Simulation time conventions and unit helpers.
///
/// Simulation time is a double measured in seconds from the start of the
/// experiment. These helpers keep unit conversions explicit at call sites.

#include <cmath>

namespace ecocloud::sim {

/// Simulation timestamp in seconds.
using SimTime = double;

inline constexpr SimTime kSecond = 1.0;
inline constexpr SimTime kMinute = 60.0;
inline constexpr SimTime kHour = 3600.0;
inline constexpr SimTime kDay = 24.0 * kHour;

/// First multiple of \p every strictly after \p t: when a task that runs
/// every \p every sim seconds at safe points (checkpoint, audit, slice
/// boundary) is next due after a safe point at \p t.
[[nodiscard]] inline SimTime next_due(SimTime t, SimTime every) {
  return (std::floor(t / every) + 1.0) * every;
}

/// Convert seconds to hours (for report axes, which the paper uses).
[[nodiscard]] constexpr double to_hours(SimTime t) { return t / kHour; }

/// Convert hours to seconds.
[[nodiscard]] constexpr SimTime hours(double h) { return h * kHour; }

/// Convert minutes to seconds.
[[nodiscard]] constexpr SimTime minutes(double m) { return m * kMinute; }

}  // namespace ecocloud::sim
