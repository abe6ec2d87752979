#pragma once

/// \file watchdog.hpp
/// \brief Wall-clock stall detector for the event loop.
///
/// The simulator is single-threaded and cooperative: if a callback
/// livelocks (or the calendar degenerates into a zero-advance event
/// storm), the process spins forever with no output. Watchdog runs a
/// tiny monitor thread that expects a beat() — delivered by
/// ckpt::SafePoints at the run's safe points — at least every
/// stall_seconds of *wall* time. A missed deadline writes a diagnostic
/// report (last observed sim time, executed-event count, and how long the
/// loop has been silent) to stderr, then exits with the stall code so CI
/// sees a failure instead of a timeout.
///
/// The monitor thread never touches simulator state: beat() publishes
/// plain atomics and the thread reads only those. arm()/disarm() bracket
/// the phases where silence is expected (setup, final I/O).

#include <atomic>
#include <cstdint>
#include <thread>

namespace ecocloud::ckpt {

class Watchdog {
 public:
  struct Config {
    /// Wall-clock seconds of event-loop silence tolerated while armed.
    double stall_seconds = 60.0;
  };

  explicit Watchdog(Config config);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Record progress. Safe to call from the simulation thread only;
  /// values are published atomically for the monitor.
  void beat(std::uint64_t executed_events, double sim_now);

  /// Start/stop enforcing the deadline. arm() also counts as a beat.
  void arm();
  void disarm();

  [[nodiscard]] bool armed() const { return armed_.load(std::memory_order_relaxed); }

 private:
  void monitor_loop();
  [[noreturn]] void report_stall(double silent_seconds);

  Config config_;
  std::atomic<bool> armed_{false};
  std::atomic<bool> shutdown_{false};
  /// steady_clock nanoseconds of the last beat.
  std::atomic<std::int64_t> last_beat_ns_{0};
  std::atomic<std::uint64_t> executed_{0};
  /// Bit pattern of the last observed sim time (atomic<double> is not
  /// guaranteed lock-free; the bit_cast round-trip always is).
  std::atomic<std::uint64_t> sim_now_bits_{0};
  std::thread monitor_;
};

}  // namespace ecocloud::ckpt
