#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace omnc {
namespace {

TEST(OnlineStats, Empty) {
  OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(OnlineStats, MatchesDirectComputation) {
  OnlineStats stats;
  const double values[] = {1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0.0;
  for (double v : values) {
    stats.add(v);
    sum += v;
  }
  const double mean = sum / 5.0;
  double var = 0.0;
  for (double v : values) var += (v - mean) * (v - mean);
  var /= 4.0;
  EXPECT_DOUBLE_EQ(stats.mean(), mean);
  EXPECT_NEAR(stats.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 16.0);
  EXPECT_DOUBLE_EQ(stats.sum(), sum);
}

TEST(OnlineStats, MergeEqualsSequential) {
  Rng rng(1);
  OnlineStats all;
  OnlineStats left;
  OnlineStats right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-5, 5);
    all.add(v);
    (i % 2 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a;
  a.add(3.0);
  OnlineStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(Cdf, AtAndQuantile) {
  Cdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 2.5);
}

TEST(Cdf, MeanMinMax) {
  Cdf cdf;
  cdf.add(5.0);
  cdf.add(1.0);
  cdf.add(3.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 3.0);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 5.0);
  EXPECT_EQ(cdf.count(), 3u);
}

TEST(Cdf, CurveIsMonotone) {
  Rng rng(2);
  Cdf cdf;
  for (int i = 0; i < 500; ++i) cdf.add(rng.normal());
  const auto points = cdf.curve(50);
  ASSERT_EQ(points.size(), 50u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].second, points[i - 1].second);
    EXPECT_GT(points[i].first, points[i - 1].first);
  }
  EXPECT_DOUBLE_EQ(points.back().second, 1.0);
}

TEST(Cdf, SortedSamples) {
  Cdf cdf({3.0, 1.0, 2.0});
  const auto& sorted = cdf.sorted_samples();
  EXPECT_EQ(sorted, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(TimeAverage, PiecewiseConstantAverage) {
  TimeAverage avg;
  avg.advance_to(0.0, 0.0);  // start
  avg.advance_to(1.0, 2.0);  // value 2 over [0,1]
  avg.advance_to(3.0, 4.0);  // value 4 over [1,3]
  // average = (2*1 + 4*2) / 3
  EXPECT_NEAR(avg.average(), 10.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(avg.elapsed(), 3.0);
}

TEST(TimeAverage, NoSamplesIsZero) {
  TimeAverage avg;
  EXPECT_DOUBLE_EQ(avg.average(), 0.0);
  avg.advance_to(5.0, 10.0);
  EXPECT_DOUBLE_EQ(avg.average(), 0.0);  // zero elapsed time
}

}  // namespace
}  // namespace omnc
