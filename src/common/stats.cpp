#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace omnc {

void OnlineStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Cdf::Cdf(std::vector<double> samples)
    : samples_(std::move(samples)), sorted_(false) {}

void Cdf::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void Cdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Cdf::at(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double Cdf::quantile(double q) const {
  OMNC_ASSERT(!samples_.empty());
  OMNC_ASSERT(q >= 0.0 && q <= 1.0);
  ensure_sorted();
  if (samples_.size() == 1) return samples_[0];
  // Linear interpolation between order statistics.
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  if (idx + 1 >= samples_.size()) return samples_.back();
  const double frac = pos - static_cast<double>(idx);
  return samples_[idx] * (1.0 - frac) + samples_[idx + 1] * frac;
}

double Cdf::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double Cdf::min() const {
  OMNC_ASSERT(!samples_.empty());
  ensure_sorted();
  return samples_.front();
}

double Cdf::max() const {
  OMNC_ASSERT(!samples_.empty());
  ensure_sorted();
  return samples_.back();
}

std::vector<std::pair<double, double>> Cdf::curve(std::size_t num) const {
  OMNC_ASSERT(num >= 2);
  std::vector<std::pair<double, double>> points;
  if (samples_.empty()) return points;
  ensure_sorted();
  const double lo = samples_.front();
  const double hi = samples_.back();
  points.reserve(num);
  for (std::size_t i = 0; i < num; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(num - 1);
    points.emplace_back(x, at(x));
  }
  return points;
}

const std::vector<double>& Cdf::sorted_samples() const {
  ensure_sorted();
  return samples_;
}

void TimeAverage::advance_to(double t, double value) {
  if (!started_) {
    started_ = true;
    first_t_ = last_t_ = t;
    return;
  }
  OMNC_ASSERT(t >= last_t_);
  weighted_sum_ += value * (t - last_t_);
  last_t_ = t;
}

double TimeAverage::average() const {
  const double span = last_t_ - first_t_;
  if (span <= 0.0) return 0.0;
  return weighted_sum_ / span;
}

}  // namespace omnc
