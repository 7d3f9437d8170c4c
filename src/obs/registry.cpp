#include "obs/registry.h"

#include <cstdio>

#include "common/table.h"

namespace omnc::obs {
namespace {

std::string format_ns(double ns) {
  char buffer[32];
  if (ns >= 1e9) {
    std::snprintf(buffer, sizeof(buffer), "%.2f s", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buffer, sizeof(buffer), "%.2f ms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buffer, sizeof(buffer), "%.2f us", ns / 1e3);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.0f ns", ns);
  }
  return buffer;
}

}  // namespace

void Timer::record_ns(std::uint64_t ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  total_ns_ += ns;
  seconds_.record(static_cast<double>(ns) / 1e9);
}

std::uint64_t Timer::count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return seconds_.count();
}

std::uint64_t Timer::total_ns() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_ns_;
}

Histogram Timer::histogram() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return seconds_;
}

void Timer::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  total_ns_ = 0;
  seconds_ = Histogram();
}

std::atomic<bool> MetricsRegistry::enabled_{false};

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Timer& MetricsRegistry::timer(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return timers_.try_emplace(name).first->second;
}

std::vector<std::pair<std::string, Histogram>> MetricsRegistry::timers()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, Histogram>> out;
  out.reserve(timers_.size());
  for (const auto& [name, timer] : timers_) {
    out.emplace_back(name, timer.histogram());
  }
  return out;
}

std::string MetricsRegistry::summary() const {
  TextTable table({"timer", "count", "total", "mean", "p50", "p99", "min",
                   "max"});
  for (const auto& [name, seconds] : timers()) {
    table.add_row({name, std::to_string(seconds.count()),
                   format_ns(1e9 * seconds.sum()),
                   format_ns(1e9 * seconds.mean()),
                   format_ns(1e9 * seconds.quantile(50.0)),
                   format_ns(1e9 * seconds.quantile(99.0)),
                   format_ns(1e9 * seconds.min()),
                   format_ns(1e9 * seconds.max())});
  }
  return table.render();
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, timer] : timers_) timer.reset();
}

}  // namespace omnc::obs
