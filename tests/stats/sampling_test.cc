#include "stats/sampling.h"

#include <gtest/gtest.h>

namespace humo::stats {
namespace {

/// Welford mean/variance accumulator for the moment checks below.
class RunningStats {
 public:
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }
  double mean() const { return mean_; }
  double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

TEST(SampleGammaTest, MeanAndVarianceMatchShape) {
  Rng rng(3);
  for (double shape : {0.5, 1.0, 2.5, 7.0}) {
    RunningStats rs;
    for (int i = 0; i < 60000; ++i) rs.Add(SampleGamma(&rng, shape));
    EXPECT_NEAR(rs.mean(), shape, 0.05 * shape + 0.02) << "shape=" << shape;
    EXPECT_NEAR(rs.variance(), shape, 0.12 * shape + 0.05) << "shape=" << shape;
  }
}

TEST(SampleGammaTest, AlwaysPositive) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(SampleGamma(&rng, 0.3), 0.0);
    EXPECT_GT(SampleGamma(&rng, 4.0), 0.0);
  }
}

TEST(SampleBetaTest, InUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = SampleBeta(&rng, 2.0, 5.0);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(SampleBetaTest, MeanMatchesAlphaOverSum) {
  Rng rng(11);
  for (auto [a, b] : {std::pair{2.0, 5.0}, {5.0, 2.0}, {1.0, 1.0}}) {
    RunningStats rs;
    for (int i = 0; i < 60000; ++i) rs.Add(SampleBeta(&rng, a, b));
    EXPECT_NEAR(rs.mean(), a / (a + b), 0.01) << a << "," << b;
  }
}

TEST(SampleBetaTest, SkewDirection) {
  Rng rng(13);
  RunningStats low, high;
  for (int i = 0; i < 20000; ++i) {
    low.Add(SampleBeta(&rng, 1.2, 8.0));   // skewed toward 0
    high.Add(SampleBeta(&rng, 8.0, 1.2));  // skewed toward 1
  }
  EXPECT_LT(low.mean(), 0.25);
  EXPECT_GT(high.mean(), 0.75);
}

}  // namespace
}  // namespace humo::stats
