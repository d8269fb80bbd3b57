/// \file timer.h
/// \brief Wall-clock timing helpers used by the experiment harness.

#pragma once

#include <chrono>
#include <cstdint>

namespace holix {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() { Restart(); }

  /// Resets the start point to now.
  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Seconds elapsed since construction or the last Restart() or lap, then
  /// restarts: one clock read per stage boundary.
  double LapSeconds() {
    const Clock::time_point now = Clock::now();
    const double s = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return s;
  }

  /// Microseconds elapsed since construction or the last Restart().
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Current monotonic time in seconds; useful for cross-thread timestamps.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace holix
