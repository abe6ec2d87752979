#include "ecocloud/ckpt/watchdog.hpp"

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "ecocloud/util/exit_codes.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::ckpt {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Watchdog::Watchdog(Config config) : config_(config) {
  util::require(config_.stall_seconds > 0.0,
                "Watchdog: stall_seconds must be > 0");
  last_beat_ns_.store(steady_ns(), std::memory_order_relaxed);
  monitor_ = std::thread([this] { monitor_loop(); });
}

Watchdog::~Watchdog() {
  shutdown_.store(true, std::memory_order_relaxed);
  if (monitor_.joinable()) monitor_.join();
}

void Watchdog::beat(std::uint64_t executed_events, double sim_now) {
  executed_.store(executed_events, std::memory_order_relaxed);
  sim_now_bits_.store(std::bit_cast<std::uint64_t>(sim_now),
                      std::memory_order_relaxed);
  last_beat_ns_.store(steady_ns(), std::memory_order_release);
}

void Watchdog::arm() {
  last_beat_ns_.store(steady_ns(), std::memory_order_release);
  armed_.store(true, std::memory_order_release);
}

void Watchdog::disarm() { armed_.store(false, std::memory_order_release); }

void Watchdog::monitor_loop() {
  using namespace std::chrono_literals;
  while (!shutdown_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(100ms);
    if (!armed_.load(std::memory_order_acquire)) continue;
    const std::int64_t last = last_beat_ns_.load(std::memory_order_acquire);
    const double silent = static_cast<double>(steady_ns() - last) * 1e-9;
    if (silent > config_.stall_seconds) report_stall(silent);
  }
}

void Watchdog::report_stall(double silent_seconds) {
  const std::uint64_t executed = executed_.load(std::memory_order_relaxed);
  const double sim_now = std::bit_cast<double>(
      sim_now_bits_.load(std::memory_order_relaxed));
  std::fprintf(stderr,
               "[watchdog] event loop stalled: no beat for %.1f s "
               "(limit %.1f s)\n"
               "[watchdog] last observed progress: sim_time=%.3f "
               "executed_events=%llu\n"
               "[watchdog] the loop is livelocked or an event storm is not "
               "advancing sim time; exiting with the stall code\n",
               silent_seconds, config_.stall_seconds, sim_now,
               static_cast<unsigned long long>(executed));
  // _Exit keeps the distinct exit code (abort would report SIGABRT) and
  // avoids running static destructors from the monitor thread while the
  // stalled simulation thread may still hold them.
  std::_Exit(util::exit_code::kWatchdogStall);
}

}  // namespace ecocloud::ckpt
