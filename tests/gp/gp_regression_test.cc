#include "gp/gp_regression.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"

namespace humo::gp {
namespace {

GpOptions TightOptions() {
  GpOptions o;
  o.noise_variance = 1e-8;
  return o;
}

TEST(GpRegressionTest, InterpolatesTrainingPointsWithLowNoise) {
  const std::vector<double> x = {0.0, 0.25, 0.5, 0.75, 1.0};
  const std::vector<double> y = {0.0, 0.2, 0.5, 0.8, 0.95};
  auto gp = GpRegression::Fit(std::make_unique<RbfKernel>(1.0, 0.2), x, y,
                              TightOptions());
  ASSERT_TRUE(gp.ok());
  for (size_t i = 0; i < x.size(); ++i) {
    const auto p = gp->Predict(x[i]);
    EXPECT_NEAR(p.mean, y[i], 1e-3) << "at x=" << x[i];
    EXPECT_LT(p.stddev(), 0.05);
  }
}

TEST(GpRegressionTest, UncertaintyGrowsAwayFromData) {
  const std::vector<double> x = {0.4, 0.5, 0.6};
  const std::vector<double> y = {0.4, 0.5, 0.6};
  auto gp = GpRegression::Fit(std::make_unique<RbfKernel>(1.0, 0.05), x, y,
                              TightOptions());
  ASSERT_TRUE(gp.ok());
  const double var_near = gp->Predict(0.5).variance;
  const double var_far = gp->Predict(0.95).variance;
  EXPECT_GT(var_far, var_near * 10.0);
}

TEST(GpRegressionTest, SmoothInterpolationBetweenPoints) {
  // Linear-ish data: midpoint prediction should land between neighbors.
  const std::vector<double> x = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  const std::vector<double> y = {0.0, 0.1, 0.3, 0.6, 0.85, 0.95};
  auto gp = GpRegression::Fit(std::make_unique<RbfKernel>(0.5, 0.25), x, y,
                              TightOptions());
  ASSERT_TRUE(gp.ok());
  const double mid = gp->Predict(0.5).mean;
  EXPECT_GT(mid, 0.3);
  EXPECT_LT(mid, 0.6);
}

TEST(GpRegressionTest, RejectsBadInputs) {
  EXPECT_FALSE(GpRegression::Fit(nullptr, {0.1}, {0.2}).ok());
  EXPECT_FALSE(GpRegression::Fit(std::make_unique<RbfKernel>(1.0, 0.1),
                                 {0.1, 0.2}, {0.2})
                   .ok());
  EXPECT_FALSE(
      GpRegression::Fit(std::make_unique<RbfKernel>(1.0, 0.1), {}, {}).ok());
  EXPECT_FALSE(GpRegression::Fit(std::make_unique<RbfKernel>(1.0, 0.1), {0.1},
                                 {0.2}, {}, {0.1, 0.1})
                   .ok());
}

TEST(GpRegressionTest, HeteroscedasticNoiseWidensLocally) {
  const std::vector<double> x = {0.2, 0.5, 0.8};
  const std::vector<double> y = {0.3, 0.5, 0.7};
  // Give the middle observation huge noise.
  auto gp_noisy = GpRegression::Fit(std::make_unique<RbfKernel>(1.0, 0.2), x,
                                    y, TightOptions(), {1e-8, 0.5, 1e-8});
  auto gp_clean = GpRegression::Fit(std::make_unique<RbfKernel>(1.0, 0.2), x,
                                    y, TightOptions(), {1e-8, 1e-8, 1e-8});
  ASSERT_TRUE(gp_noisy.ok());
  ASSERT_TRUE(gp_clean.ok());
  EXPECT_GT(gp_noisy->Predict(0.5).variance, gp_clean->Predict(0.5).variance);
}

TEST(GpRegressionTest, JointPredictionDiagonalMatchesPointwise) {
  const std::vector<double> x = {0.1, 0.3, 0.5, 0.7};
  const std::vector<double> y = {0.1, 0.4, 0.5, 0.9};
  auto gp = GpRegression::Fit(std::make_unique<RbfKernel>(1.0, 0.15), x, y,
                              TightOptions());
  ASSERT_TRUE(gp.ok());
  const std::vector<double> q = {0.2, 0.6, 0.95};
  const auto joint = gp->PredictJoint(q);
  ASSERT_EQ(joint.mean.size(), 3u);
  for (size_t i = 0; i < q.size(); ++i) {
    const auto p = gp->Predict(q[i]);
    EXPECT_NEAR(joint.mean[i], p.mean, 1e-9);
    EXPECT_NEAR(joint.covariance(i, i), p.variance, 1e-9);
  }
}

TEST(GpRegressionTest, JointCovarianceOffDiagonalPositiveForNearbyPoints) {
  const std::vector<double> x = {0.1, 0.9};
  const std::vector<double> y = {0.2, 0.8};
  auto gp = GpRegression::Fit(std::make_unique<RbfKernel>(1.0, 0.2), x, y,
                              TightOptions());
  ASSERT_TRUE(gp.ok());
  const auto joint = gp->PredictJoint({0.48, 0.52});
  EXPECT_GT(joint.covariance(0, 1), 0.0);
  EXPECT_NEAR(joint.covariance(0, 1), joint.covariance(1, 0), 1e-12);
}

TEST(GpRegressionTest, WeightedTotalAggregation) {
  const std::vector<double> x = {0.0, 0.5, 1.0};
  const std::vector<double> y = {0.0, 0.5, 1.0};
  auto gp = GpRegression::Fit(std::make_unique<RbfKernel>(1.0, 0.3), x, y,
                              TightOptions());
  ASSERT_TRUE(gp.ok());
  const std::vector<double> q = {0.25, 0.75};
  const auto joint = gp->PredictJoint(q);
  const std::vector<double> weights = {100.0, 100.0};
  const double total = joint.WeightedTotalMean(weights);
  EXPECT_NEAR(total, 100.0 * (joint.mean[0] + joint.mean[1]), 1e-9);
  EXPECT_GE(joint.WeightedTotalStdDev(weights), 0.0);
}

TEST(GpRegressionTest, WhitenedCrossConsistentWithVariance) {
  const std::vector<double> x = {0.2, 0.4, 0.6, 0.8};
  const std::vector<double> y = {0.2, 0.3, 0.6, 0.9};
  auto gp = GpRegression::Fit(std::make_unique<RbfKernel>(1.0, 0.2), x, y,
                              TightOptions());
  ASSERT_TRUE(gp.ok());
  const double q = 0.55;
  const auto w = gp->WhitenedCross(q);
  double dot = 0.0;
  for (double v : w) dot += v * v;
  const auto p = gp->Predict(q);
  EXPECT_NEAR(p.variance, gp->kernel()(q, q) - dot, 1e-9);
}

TEST(GpRegressionTest, LogMarginalLikelihoodPrefersTrueLengthScale) {
  // Sample a smooth function; a wildly wrong length scale should score
  // worse than a sensible one.
  humo::Rng rng(5);
  std::vector<double> x, y;
  for (int i = 0; i <= 20; ++i) {
    const double xi = i / 20.0;
    x.push_back(xi);
    y.push_back(std::sin(3.0 * xi) * 0.4 + 0.5 +
                0.01 * rng.NextGaussian());
  }
  GpOptions o;
  o.noise_variance = 1e-4;
  auto good = GpRegression::Fit(std::make_unique<RbfKernel>(0.3, 0.3), x, y, o);
  auto bad =
      GpRegression::Fit(std::make_unique<RbfKernel>(0.3, 0.001), x, y, o);
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(bad.ok());
  EXPECT_GT(good->LogMarginalLikelihood(), bad->LogMarginalLikelihood());
}

TEST(GpModelSelectionTest, PicksBestCandidateOnGrid) {
  std::vector<double> x, y;
  for (int i = 0; i <= 15; ++i) {
    const double xi = i / 15.0;
    x.push_back(xi);
    y.push_back(0.95 / (1.0 + std::exp(-14.0 * (xi - 0.55))));
  }
  auto gp = SelectGpByMarginalLikelihood(x, y, DefaultGpGrid(),
                                         KernelFamily::kRbf);
  ASSERT_TRUE(gp.ok());
  // The selected model should interpolate the logistic decently.
  EXPECT_NEAR(gp->Predict(0.55).mean, 0.475, 0.08);
}

TEST(GpModelSelectionTest, EmptyGridFails) {
  EXPECT_FALSE(SelectGpByMarginalLikelihood({0.1}, {0.2}, {},
                                            KernelFamily::kRbf)
                   .ok());
}

TEST(GpModelSelectionTest, WorksForAllKernelFamilies) {
  const std::vector<double> x = {0.1, 0.3, 0.5, 0.7, 0.9};
  const std::vector<double> y = {0.1, 0.2, 0.5, 0.8, 0.9};
  for (auto family : {KernelFamily::kRbf, KernelFamily::kMatern32,
                      KernelFamily::kMatern52}) {
    auto gp = SelectGpByMarginalLikelihood(x, y, DefaultGpGrid(), family);
    ASSERT_TRUE(gp.ok());
    EXPECT_NEAR(gp->Predict(0.5).mean, 0.5, 0.15);
  }
}

// Noisy logistic proportions on `n` sorted inputs with per-point sampling
// noise — the shape of a SAMP training set.
struct SelectionSet {
  std::vector<double> x, y, noise;
};

SelectionSet MakeSelectionSet(size_t n, uint64_t seed) {
  Rng rng(seed);
  SelectionSet t;
  for (size_t i = 0; i < n; ++i) t.x.push_back(rng.NextDouble());
  std::sort(t.x.begin(), t.x.end());
  for (double xi : t.x) {
    t.y.push_back(0.95 / (1.0 + std::exp(-12.0 * (xi - 0.5))) +
                  0.02 * rng.NextGaussian());
    t.noise.push_back(1e-4 + 4e-4 * rng.NextDouble());
  }
  return t;
}

TEST(GpModelSelectionTest, MatchesSerialReferenceBitForBit) {
  // n >= 96 puts the reference fits on the column-parallel factor path at 4
  // threads, while the selector factors inside pool tasks, serially.
  const SelectionSet t = MakeSelectionSet(128, 5);
  const std::vector<GpCandidate> grid = DefaultGpGrid();
  GpOptions o;
  o.noise_variance = 1e-6;
  const std::vector<double> queries = {0.0, 0.13, 0.5, 0.61, 0.87, 1.0};
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(threads);
    ThreadPool::SetGlobalThreads(threads);
    // Reference: fit every candidate, keep the first strict maximum.
    std::unique_ptr<GpRegression> ref;
    double ref_lml = -std::numeric_limits<double>::infinity();
    for (const GpCandidate& cand : grid) {
      auto fit = GpRegression::Fit(
          std::make_unique<RbfKernel>(cand.signal_variance, cand.length_scale),
          t.x, t.y, o, t.noise);
      if (fit.ok() && fit->LogMarginalLikelihood() > ref_lml) {
        ref_lml = fit->LogMarginalLikelihood();
        ref = std::make_unique<GpRegression>(std::move(*fit));
      }
    }
    ASSERT_NE(ref, nullptr);
    auto gp = SelectGpByMarginalLikelihood(t.x, t.y, grid, KernelFamily::kRbf,
                                           o, t.noise);
    ASSERT_TRUE(gp.ok()) << gp.status().ToString();
    EXPECT_EQ(gp->LogMarginalLikelihood(), ref_lml);  // bitwise
    const auto& kernel = dynamic_cast<const RbfKernel&>(gp->kernel());
    const auto& ref_kernel = dynamic_cast<const RbfKernel&>(ref->kernel());
    EXPECT_EQ(kernel.signal_variance(), ref_kernel.signal_variance());
    EXPECT_EQ(kernel.length_scale(), ref_kernel.length_scale());
    for (const double q : queries) {
      const Prediction p = gp->Predict(q);
      const Prediction r = ref->Predict(q);
      EXPECT_EQ(p.mean, r.mean) << "at " << q;  // bitwise
      EXPECT_EQ(p.variance, r.variance) << "at " << q;
    }
  }
  ThreadPool::SetGlobalThreads(0);
}

TEST(GpModelSelectionTest, EveryCandidateFailingIsInternal) {
  // A strongly negative diagonal defeats every jitter step of every
  // candidate's factorization.
  const SelectionSet t = MakeSelectionSet(16, 6);
  const std::vector<double> noise(t.x.size(), -10.0);
  auto gp = SelectGpByMarginalLikelihood(t.x, t.y, DefaultGpGrid(),
                                         KernelFamily::kRbf, {}, noise);
  ASSERT_FALSE(gp.ok());
  EXPECT_EQ(gp.status().code(), StatusCode::kInternal);
}

TEST(GpModelSelectionTest, ShapeErrorsReportFitsInvalidArgument) {
  const std::vector<double> x = {0.1, 0.5, 0.9};
  const std::vector<double> y = {0.2, 0.5, 0.8};
  struct Case {
    std::vector<double> x, y, noise;
  };
  const std::vector<Case> cases = {
      {{}, {}, {}},           // empty training set
      {x, {0.2, 0.5}, {}},    // x/y size mismatch
      {x, y, {1e-4, 1e-4}},  // noise_variances not parallel to x
  };
  for (const Case& c : cases) {
    auto fit = GpRegression::Fit(std::make_unique<RbfKernel>(1.0, 0.1), c.x,
                                 c.y, {}, c.noise);
    auto gp = SelectGpByMarginalLikelihood(c.x, c.y, DefaultGpGrid(),
                                           KernelFamily::kRbf, {}, c.noise);
    ASSERT_FALSE(gp.ok());
    EXPECT_EQ(gp.status().code(), StatusCode::kInvalidArgument)
        << gp.status().ToString();
    EXPECT_EQ(gp.status(), fit.status());
  }
}

}  // namespace
}  // namespace humo::gp
