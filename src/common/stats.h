// Statistics helpers shared by the experiment harness and the benches.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace omnc {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

  /// Merges another accumulator (parallel reduction).
  void merge(const OnlineStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Empirical CDF over a sample set.
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::vector<double> samples);

  void add(double x);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Fraction of samples <= x.
  double at(double x) const;
  /// Inverse CDF; q in [0,1].
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  double min() const;
  double max() const;

  /// Evenly spaced (x, F(x)) points suitable for plotting, num >= 2.
  std::vector<std::pair<double, double>> curve(std::size_t num) const;

  const std::vector<double>& sorted_samples() const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Time-weighted average of a piecewise-constant signal, e.g. a queue size
/// sampled at irregular event times.
class TimeAverage {
 public:
  /// Records that the signal had `value` from the previous timestamp to `t`.
  void advance_to(double t, double value);

  double average() const;
  double elapsed() const { return last_t_ - first_t_; }
  bool started() const { return started_; }

 private:
  bool started_ = false;
  double first_t_ = 0.0;
  double last_t_ = 0.0;
  double weighted_sum_ = 0.0;
};

}  // namespace omnc
