#include "stats/distributions.h"

#include <gtest/gtest.h>

#include <cmath>

namespace humo::stats {
namespace {

TEST(NormalTest, CdfReferenceValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.0), 0.8413447460685429, 1e-10);
  EXPECT_NEAR(NormalCdf(-1.0), 1.0 - 0.8413447460685429, 1e-10);
  EXPECT_NEAR(NormalCdf(1.959963985), 0.975, 1e-6);
}

TEST(NormalTest, CdfMonotone) {
  double prev = 0.0;
  for (double x = -5.0; x <= 5.0; x += 0.1) {
    const double c = NormalCdf(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(NormalTest, QuantileInvertsCdf) {
  for (double p : {0.001, 0.025, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 0.999}) {
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-9) << "p=" << p;
  }
}

TEST(NormalTest, QuantileReferenceValues) {
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.95), 1.644853627, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
}

TEST(NormalTest, TwoSidedCritical) {
  // P(-z < Z < z) = 0.95 -> z = 1.96.
  EXPECT_NEAR(NormalTwoSidedCritical(0.95), 1.959963985, 1e-6);
  EXPECT_NEAR(NormalTwoSidedCritical(0.90), 1.644853627, 1e-6);
}

TEST(LogGammaTest, FactorialValues) {
  // Gamma(n) = (n-1)!
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(LogGamma(2.0), 0.0, 1e-12);
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-10);
  EXPECT_NEAR(LogGamma(11.0), std::log(3628800.0), 1e-8);
}

TEST(LogGammaTest, HalfIntegerValue) {
  // Gamma(1/2) = sqrt(pi).
  EXPECT_NEAR(LogGamma(0.5), 0.5 * std::log(M_PI), 1e-10);
}

TEST(IncompleteBetaTest, Boundaries) {
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
}

TEST(IncompleteBetaTest, SymmetricCase) {
  // I_{0.5}(a, a) = 0.5 by symmetry.
  EXPECT_NEAR(RegularizedIncompleteBeta(3.0, 3.0, 0.5), 0.5, 1e-10);
}

TEST(IncompleteBetaTest, UniformSpecialCase) {
  // I_x(1, 1) = x.
  for (double x : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 1.0, x), x, 1e-10);
  }
}

TEST(IncompleteBetaTest, KnownValue) {
  // I_x(2, 2) = x^2 (3 - 2x).
  const double x = 0.3;
  EXPECT_NEAR(RegularizedIncompleteBeta(2.0, 2.0, x), x * x * (3 - 2 * x),
              1e-10);
}

TEST(StudentTTest, CdfAtZeroIsHalf) {
  for (double df : {1.0, 2.0, 5.0, 30.0}) {
    EXPECT_NEAR(StudentTCdf(0.0, df), 0.5, 1e-12) << "df=" << df;
  }
}

TEST(StudentTTest, CdfSymmetry) {
  for (double t : {0.5, 1.0, 2.5}) {
    EXPECT_NEAR(StudentTCdf(t, 7.0) + StudentTCdf(-t, 7.0), 1.0, 1e-10);
  }
}

TEST(StudentTTest, CauchySpecialCase) {
  // df=1 is the Cauchy distribution: CDF(t) = 1/2 + atan(t)/pi.
  for (double t : {-2.0, -0.5, 0.7, 3.0}) {
    EXPECT_NEAR(StudentTCdf(t, 1.0), 0.5 + std::atan(t) / M_PI, 1e-9);
  }
}

TEST(StudentTTest, ApproachesNormalForLargeDf) {
  for (double t : {-1.5, 0.5, 2.0}) {
    EXPECT_NEAR(StudentTCdf(t, 1e6), NormalCdf(t), 1e-4);
  }
}

TEST(StudentTTest, QuantileInvertsCdf) {
  for (double df : {1.0, 4.0, 12.0, 100.0}) {
    for (double p : {0.05, 0.25, 0.5, 0.8, 0.975}) {
      const double t = StudentTQuantile(p, df);
      EXPECT_NEAR(StudentTCdf(t, df), p, 1e-8) << "df=" << df << " p=" << p;
    }
  }
}

TEST(StudentTTest, CriticalValueReferenceTable) {
  // Standard t-table two-sided 95% values.
  EXPECT_NEAR(StudentTTwoSidedCritical(0.95, 1), 12.706, 2e-3);
  EXPECT_NEAR(StudentTTwoSidedCritical(0.95, 5), 2.571, 1e-3);
  EXPECT_NEAR(StudentTTwoSidedCritical(0.95, 10), 2.228, 1e-3);
  EXPECT_NEAR(StudentTTwoSidedCritical(0.95, 30), 2.042, 1e-3);
}

TEST(StudentTTest, CriticalValueShrinksWithDf) {
  const double c1 = StudentTTwoSidedCritical(0.9, 2);
  const double c2 = StudentTTwoSidedCritical(0.9, 20);
  const double c3 = StudentTTwoSidedCritical(0.9, 200);
  EXPECT_GT(c1, c2);
  EXPECT_GT(c2, c3);
  EXPECT_GT(c3, NormalTwoSidedCritical(0.9) - 0.01);
}

TEST(StudentTTest, ZeroDfFallsBackToNormal) {
  EXPECT_NEAR(StudentTTwoSidedCritical(0.95, 0.0),
              NormalTwoSidedCritical(0.95), 1e-12);
}

}  // namespace
}  // namespace humo::stats
