// Process-wide metrics registry: named wall-clock timers whose durations
// land in an obs::Histogram (obs/histogram.h), the one histogram type the
// tree uses for every latency.
//
// Hot paths register a timer once (a function-local static reference) and
// then record into it under the timer's own mutex, so thread_pool workers
// and shard threads may time concurrently.  The whole registry sits behind a
// single global enabled flag: when profiling is off (the default), a
// ScopedTimer costs one relaxed atomic load and never reads the clock, which
// keeps the encode/recode/decode/RREF/simplex probes out of the fixed-seed
// regression's way — they observe wall time only, never simulation state.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace omnc::obs {

/// Wall-clock duration accumulator: an exact sample count and nanosecond
/// total, plus the distribution of the durations.
class Timer {
 public:
  void record_ns(std::uint64_t ns);

  std::uint64_t count() const;
  std::uint64_t total_ns() const;
  /// Copy of the recorded durations in seconds.  Seconds, not nanoseconds:
  /// the histogram's top octave ends at 2^23, which is only 8.4 ms in ns.
  Histogram histogram() const;

  void reset();

 private:
  mutable std::mutex mutex_;
  std::uint64_t total_ns_ = 0;  // guarded by mutex_
  Histogram seconds_;           // guarded by mutex_
};

class MetricsRegistry {
 public:
  /// The process-wide registry the OMNC_SCOPED_TIMER probes report to.
  static MetricsRegistry& global();

  /// Gates every ScopedTimer in the process; off by default.
  static void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Finds or creates a timer.  Returned references stay valid for the
  /// registry's lifetime, so hot paths may cache them in statics.
  Timer& timer(const std::string& name);

  /// Every timer's durations (seconds), sorted by name.
  std::vector<std::pair<std::string, Histogram>> timers() const;

  /// Human-readable summary table (common/table.h) of every timer.
  std::string summary() const;

  /// Zeroes every timer; registrations (and cached references) survive.
  void reset();

 private:
  MetricsRegistry() = default;

  static std::atomic<bool> enabled_;
  mutable std::mutex mutex_;
  // Node-based map keeps timer addresses stable across registrations.
  std::map<std::string, Timer> timers_;  // guarded by mutex_
};

/// RAII wall-clock probe.  Construction with the registry disabled skips the
/// clock entirely.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& timer)
      : timer_(MetricsRegistry::enabled() ? &timer : nullptr) {
    if (timer_ != nullptr) start_ = now_ns();
  }
  ~ScopedTimer() {
    if (timer_ != nullptr) timer_->record_ns(now_ns() - start_);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  Timer* timer_;
  std::uint64_t start_ = 0;
};

}  // namespace omnc::obs

// Drops a wall-clock probe on the enclosing scope.  Registration runs once
// (thread-safe function-local static); afterwards each pass costs one
// relaxed load when profiling is disabled.
#define OMNC_OBS_CONCAT_INNER(a, b) a##b
#define OMNC_OBS_CONCAT(a, b) OMNC_OBS_CONCAT_INNER(a, b)
#define OMNC_SCOPED_TIMER(name)                                            \
  static ::omnc::obs::Timer& OMNC_OBS_CONCAT(omnc_obs_timer_, __LINE__) =  \
      ::omnc::obs::MetricsRegistry::global().timer(name);                  \
  ::omnc::obs::ScopedTimer OMNC_OBS_CONCAT(omnc_obs_scope_, __LINE__)(     \
      OMNC_OBS_CONCAT(omnc_obs_timer_, __LINE__))
