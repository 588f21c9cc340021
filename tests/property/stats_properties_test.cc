#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "stats/distributions.h"
#include "stats/proportion.h"
#include "stats/stratified.h"
#include "stats/stratified_test_helpers.h"

namespace humo::stats {
namespace {

/// Property sweep over the t distribution: quantile/CDF inversion across a
/// parameter grid.
struct TCase {
  double df;
  double p;
};

class StudentTPropertyTest : public ::testing::TestWithParam<TCase> {};

TEST_P(StudentTPropertyTest, QuantileInvertsCdf) {
  const auto [df, p] = GetParam();
  const double t = StudentTQuantile(p, df);
  EXPECT_NEAR(StudentTCdf(t, df), p, 1e-7);
}

TEST_P(StudentTPropertyTest, SymmetryOfQuantiles) {
  const auto [df, p] = GetParam();
  EXPECT_NEAR(StudentTQuantile(p, df), -StudentTQuantile(1.0 - p, df), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StudentTPropertyTest,
    ::testing::Values(TCase{1, 0.9}, TCase{1, 0.99}, TCase{2, 0.8},
                      TCase{3, 0.95}, TCase{5, 0.9}, TCase{10, 0.75},
                      TCase{30, 0.95}, TCase{100, 0.99}, TCase{250, 0.9}),
    [](const ::testing::TestParamInfo<TCase>& info) {
      return "df" + std::to_string(static_cast<int>(info.param.df)) + "_p" +
             std::to_string(static_cast<int>(info.param.p * 100));
    });

/// Interval-method properties swept over (positives, n) grids.
class IntervalPropertyTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(IntervalPropertyTest, OrderedAndBounded) {
  const auto [k, n] = GetParam();
  for (double conf : {0.8, 0.9, 0.95, 0.99}) {
    for (auto* fn : {WaldInterval, WilsonInterval, ClopperPearsonInterval,
                     AgrestiCoullInterval}) {
      const auto iv = fn(k, n, conf);
      EXPECT_LE(iv.lo, iv.hi);
      EXPECT_GE(iv.lo, 0.0);
      EXPECT_LE(iv.hi, 1.0);
    }
  }
}

TEST_P(IntervalPropertyTest, WilsonContainsPointEstimate) {
  const auto [k, n] = GetParam();
  const double p = n == 0 ? 0.0 : static_cast<double>(k) / n;
  const auto iv = WilsonInterval(k, n, 0.9);
  EXPECT_LE(iv.lo, p + 1e-12);
  EXPECT_GE(iv.hi, p - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IntervalPropertyTest,
    ::testing::Values(std::pair<size_t, size_t>{0, 10},
                      std::pair<size_t, size_t>{1, 10},
                      std::pair<size_t, size_t>{5, 10},
                      std::pair<size_t, size_t>{10, 10},
                      std::pair<size_t, size_t>{0, 100},
                      std::pair<size_t, size_t>{3, 100},
                      std::pair<size_t, size_t>{50, 100},
                      std::pair<size_t, size_t>{97, 100},
                      std::pair<size_t, size_t>{100, 100},
                      std::pair<size_t, size_t>{500, 1000}),
    [](const ::testing::TestParamInfo<std::pair<size_t, size_t>>& info) {
      return "k" + std::to_string(info.param.first) + "_n" +
             std::to_string(info.param.second);
    });

TEST(StratifiedPropertyTest, BoundsAlwaysBracketMean) {
  Rng rng(23);
  for (int rep = 0; rep < 100; ++rep) {
    std::vector<Stratum> strata(1 + rng.NextBelow(6));
    for (auto& s : strata) {
      s.population = 10 + rng.NextBelow(1000);
      s.sample_size = std::min<size_t>(
          s.population, 2 + rng.NextBelow(50));
      s.sample_positives = rng.NextBelow(s.sample_size + 1);
    }
    const auto est = CombineStrata(strata);
    for (double conf : {0.6, 0.9, 0.99}) {
      EXPECT_LE(est.LowerBound(conf), est.total_mean + 1e-9);
      EXPECT_GE(est.UpperBound(conf) + 1e-9, est.total_mean);
      EXPECT_GE(est.LowerBound(conf), 0.0);
      EXPECT_LE(est.UpperBound(conf),
                static_cast<double>(est.population));
    }
  }
}

/// Randomized interval properties: on several hundred (positives, n) draws,
/// the Wilson and Beta-posterior intervals must bracket the MLE k/n and
/// widen monotonically in confidence.
TEST(IntervalRandomPropertyTest, WilsonAndBetaBracketTheMle) {
  Rng rng(2024);
  for (int rep = 0; rep < 300; ++rep) {
    const size_t n = 1 + rng.NextBelow(2000);
    const size_t k = rng.NextBelow(n + 1);
    const double mle = static_cast<double>(k) / static_cast<double>(n);
    for (double conf : {0.5, 0.8, 0.9, 0.95, 0.99}) {
      const auto wilson = WilsonInterval(k, n, conf);
      EXPECT_LE(wilson.lo, mle + 1e-12) << "k=" << k << " n=" << n;
      EXPECT_GE(wilson.hi, mle - 1e-12) << "k=" << k << " n=" << n;
      const auto beta = BetaPosteriorInterval(k, n, conf);
      // The uniform-prior posterior mode is the MLE; the equal-tailed
      // interval must straddle it except in the degenerate k=0 / k=n
      // corners where the interval is one-sided by construction.
      if (k > 0 && k < n) {
        EXPECT_LE(beta.lo, mle + 1e-9) << "k=" << k << " n=" << n;
        EXPECT_GE(beta.hi, mle - 1e-9) << "k=" << k << " n=" << n;
      }
      EXPECT_LE(beta.lo, beta.hi);
      EXPECT_GE(beta.lo, 0.0);
      EXPECT_LE(beta.hi, 1.0);
    }
  }
}

TEST(IntervalRandomPropertyTest, IntervalsWidenMonotonicallyInConfidence) {
  Rng rng(77);
  for (int rep = 0; rep < 300; ++rep) {
    const size_t n = 2 + rng.NextBelow(1000);
    const size_t k = rng.NextBelow(n + 1);
    double prev_wilson = -1.0, prev_beta = -1.0;
    for (double conf : {0.5, 0.7, 0.9, 0.99}) {
      const auto wilson = WilsonInterval(k, n, conf);
      const double w_width = wilson.hi - wilson.lo;
      EXPECT_GE(w_width + 1e-12, prev_wilson)
          << "k=" << k << " n=" << n << " conf=" << conf;
      prev_wilson = w_width;
      const auto beta = BetaPosteriorInterval(k, n, conf);
      const double b_width = beta.hi - beta.lo;
      EXPECT_GE(b_width + 1e-9, prev_beta)
          << "k=" << k << " n=" << n << " conf=" << conf;
      prev_beta = b_width;
    }
  }
}

TEST(IntervalRandomPropertyTest, BetaTailBoundsBracketTheInterval) {
  Rng rng(303);
  for (int rep = 0; rep < 200; ++rep) {
    const size_t n = 1 + rng.NextBelow(500);
    const size_t k = rng.NextBelow(n + 1);
    const double upper = BetaPosteriorUpperBound(k, n, 0.95);
    const double lower = BetaPosteriorLowerBound(k, n, 0.95);
    EXPECT_LE(lower, upper) << "k=" << k << " n=" << n;
    EXPECT_GE(lower, 0.0);
    EXPECT_LE(upper, 1.0);
  }
}

TEST(NormalPropertyTest, CriticalValueMonotoneInConfidence) {
  double prev = 0.0;
  for (double conf = 0.5; conf < 0.999; conf += 0.05) {
    const double z = NormalTwoSidedCritical(conf);
    EXPECT_GT(z, prev);
    prev = z;
  }
}

}  // namespace
}  // namespace humo::stats
