#include "core/gp_subset_model.h"

#include <gtest/gtest.h>

#include <cmath>

namespace humo::core {
namespace {

/// Builds a model over `m` subsets of size 100 whose proportions follow a
/// smooth ramp, with every 4th subset observed.
GpSubsetModel MakeModel(size_t m = 20) {
  std::vector<double> train_x, train_y;
  std::vector<double> v(m), n(m, 100.0);
  for (size_t k = 0; k < m; ++k) {
    v[k] = (static_cast<double>(k) + 0.5) / static_cast<double>(m);
    // Every 4th subset observed, plus the last one so the top of the range
    // is interpolation rather than mean-reverting extrapolation.
    if (k % 4 == 0 || k + 1 == m) {
      train_x.push_back(v[k]);
      train_y.push_back(v[k]);  // proportion == similarity (a clean ramp)
    }
  }
  gp::GpOptions o;
  o.noise_variance = 1e-6;
  auto gp = gp::GpRegression::Fit(std::make_unique<gp::RbfKernel>(0.5, 0.3),
                                  train_x, train_y, o);
  EXPECT_TRUE(gp.ok());
  return GpSubsetModel(std::move(*gp), v, n);
}

TEST(GpSubsetModelTest, PosteriorMeansTrackRamp) {
  const auto model = MakeModel();
  for (size_t k = 0; k < model.num_subsets(); ++k) {
    EXPECT_NEAR(model.PosteriorMean(k), model.AvgSimilarity(k), 0.05)
        << "subset " << k;
  }
}

TEST(GpSubsetModelTest, MeansClampedToUnitInterval) {
  const auto model = MakeModel();
  for (size_t k = 0; k < model.num_subsets(); ++k) {
    EXPECT_GE(model.PosteriorMean(k), 0.0);
    EXPECT_LE(model.PosteriorMean(k), 1.0);
  }
}

TEST(GpSubsetModelTest, WhitenedRowsMatchWhitenedCross) {
  const auto model = MakeModel();
  const size_t dim = model.gp().num_training_points();
  for (size_t k = 0; k < model.num_subsets(); ++k) {
    const linalg::Vector w = model.gp().WhitenedCross(model.AvgSimilarity(k));
    ASSERT_EQ(w.size(), dim);
    const double* row = model.W(k);
    for (size_t i = 0; i < dim; ++i)
      EXPECT_EQ(row[i], w[i]) << "subset " << k << " dim " << i;  // bitwise
  }
}

TEST(GpSubsetModelTest, PopulationInRange) {
  const auto model = MakeModel();
  EXPECT_DOUBLE_EQ(model.PopulationInRange(0, 19), 2000.0);
  EXPECT_DOUBLE_EQ(model.PopulationInRange(3, 5), 300.0);
  EXPECT_DOUBLE_EQ(model.PopulationInRange(5, 3), 0.0);
}

TEST(GpRangeAccumulatorTest, MatchesDirectJointPrediction) {
  const auto model = MakeModel();
  GpRangeAccumulator acc(&model);
  acc.SetRange(4, 9);
  // Direct computation via the GP's joint prediction.
  std::vector<double> q, weights;
  for (size_t k = 4; k <= 9; ++k) {
    q.push_back(model.AvgSimilarity(k));
    weights.push_back(model.SubsetSize(k));
  }
  const auto joint = model.gp().PredictJoint(q);
  // Means may differ slightly because the accumulator uses clamped means;
  // on this ramp nothing clamps, so they should agree closely.
  double direct_mean = 0.0;
  for (size_t i = 0; i < q.size(); ++i)
    direct_mean += weights[i] * std::clamp(joint.mean[i], 0.0, 1.0);
  EXPECT_NEAR(acc.TotalMean(), direct_mean, 1e-6);
  EXPECT_NEAR(acc.TotalStdDev(), joint.WeightedTotalStdDev(weights), 1e-6);
}

TEST(GpRangeAccumulatorTest, IncrementalOpsMatchRebuild) {
  const auto model = MakeModel();
  GpRangeAccumulator inc(&model), direct(&model);
  inc.SetRange(5, 10);
  inc.ExtendRight();   // [5, 11]
  inc.ExtendLeft();    // [4, 11]
  inc.ShrinkRight();   // [4, 10]
  inc.ShrinkLeft();    // [5, 10]
  inc.ExtendRight();   // [5, 11]
  direct.SetRange(5, 11);
  EXPECT_NEAR(inc.TotalMean(), direct.TotalMean(), 1e-9);
  EXPECT_NEAR(inc.TotalStdDev(), direct.TotalStdDev(), 1e-9);
  EXPECT_EQ(inc.a(), direct.a());
  EXPECT_EQ(inc.b(), direct.b());
}

TEST(GpRangeAccumulatorTest, ShrinkToEmpty) {
  const auto model = MakeModel();
  GpRangeAccumulator acc(&model);
  acc.SetRange(3, 3);
  EXPECT_FALSE(acc.IsEmpty());
  acc.ShrinkLeft();
  EXPECT_TRUE(acc.IsEmpty());
  EXPECT_DOUBLE_EQ(acc.TotalMean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.TotalStdDev(), 0.0);
  EXPECT_DOUBLE_EQ(acc.LowerBound(0.9), 0.0);
}

TEST(GpRangeAccumulatorTest, BoundsBracketMean) {
  const auto model = MakeModel();
  GpRangeAccumulator acc(&model);
  acc.SetRange(2, 12);
  const double mean = acc.TotalMean();
  EXPECT_LE(acc.LowerBound(0.9), mean);
  EXPECT_GE(acc.UpperBound(0.9), mean);
  EXPECT_GE(acc.LowerBound(0.9), 0.0);
  EXPECT_LE(acc.UpperBound(0.9), acc.Population());
}

TEST(GpRangeAccumulatorTest, HigherConfidenceWidens) {
  const auto model = MakeModel();
  GpRangeAccumulator acc(&model);
  acc.SetRange(2, 12);
  const double narrow = acc.UpperBound(0.8) - acc.LowerBound(0.8);
  const double wide = acc.UpperBound(0.99) - acc.LowerBound(0.99);
  EXPECT_GE(wide, narrow);
}

TEST(GpRangeAccumulatorTest, VarianceShrinksNearObservedSubsets) {
  const auto model = MakeModel();
  // Range consisting of a single observed subset (k=4 is in training) vs a
  // single unobserved one far from training points.
  GpRangeAccumulator observed(&model), unobserved(&model);
  observed.SetRange(4, 4);
  unobserved.SetRange(18, 18);  // k=18 not observed (18 % 4 != 0)
  EXPECT_LT(observed.TotalStdDev(), unobserved.TotalStdDev());
}

TEST(GpRangeAccumulatorTest, ClearResets) {
  const auto model = MakeModel();
  GpRangeAccumulator acc(&model);
  acc.SetRange(1, 5);
  acc.Clear();
  EXPECT_TRUE(acc.IsEmpty());
  EXPECT_DOUBLE_EQ(acc.Population(), 0.0);
}

/// Builds a model where some subsets carry exact observations and the rest
/// independent scatter.
GpSubsetModel MakeModelWithObservations(double scatter_var,
                                        double inflation = 1.0) {
  const size_t m = 10;
  std::vector<double> train_x, train_y;
  std::vector<double> v(m), n(m, 100.0);
  std::vector<SubsetObservation> obs(m);
  std::vector<double> scatter(m, scatter_var);
  for (size_t k = 0; k < m; ++k) {
    v[k] = (static_cast<double>(k) + 0.5) / static_cast<double>(m);
    if (k % 2 == 0) {
      train_x.push_back(v[k]);
      train_y.push_back(0.5);
      obs[k].exact = true;
      obs[k].proportion = 0.5;
      scatter[k] = 0.0;
    }
  }
  gp::GpOptions o;
  o.noise_variance = 1e-8;
  auto gp = gp::GpRegression::Fit(std::make_unique<gp::RbfKernel>(0.25, 0.4),
                                  train_x, train_y, o);
  EXPECT_TRUE(gp.ok());
  return GpSubsetModel(std::move(*gp), v, n, obs, scatter, inflation);
}

TEST(GpSubsetModelTest, ExactObservationsOverrideGpMean) {
  const auto model = MakeModelWithObservations(0.0);
  for (size_t k = 0; k < model.num_subsets(); k += 2) {
    EXPECT_TRUE(model.IsExact(k));
    EXPECT_DOUBLE_EQ(model.PosteriorMean(k), 0.5);
  }
  EXPECT_FALSE(model.IsExact(1));
}

TEST(GpRangeAccumulatorTest, ExactOnlyRangeHasZeroVariance) {
  const auto model = MakeModelWithObservations(0.01);
  GpRangeAccumulator acc(&model);
  acc.SetRange(0, 0);  // a single exact subset
  EXPECT_DOUBLE_EQ(acc.TotalStdDev(), 0.0);
  EXPECT_DOUBLE_EQ(acc.TotalMean(), 50.0);  // 100 pairs * 0.5
  EXPECT_DOUBLE_EQ(acc.LowerBound(0.99), acc.UpperBound(0.99));
}

TEST(GpRangeAccumulatorTest, ScatterWidensNonExactRanges) {
  const auto with_scatter = MakeModelWithObservations(0.01);
  const auto without = MakeModelWithObservations(0.0);
  GpRangeAccumulator a(&with_scatter), b(&without);
  a.SetRange(0, 9);
  b.SetRange(0, 9);
  EXPECT_GT(a.TotalStdDev(), b.TotalStdDev());
  // Five non-exact subsets of 100 pairs each at scatter var 0.01:
  // extra variance = 5 * (100^2 * 0.01) = 500.
  const double extra = a.TotalStdDev() * a.TotalStdDev() -
                       b.TotalStdDev() * b.TotalStdDev();
  EXPECT_NEAR(extra, 500.0, 1e-6);
}

TEST(GpRangeAccumulatorTest, VarianceInflationScalesGpPart) {
  const auto plain = MakeModelWithObservations(0.0, 1.0);
  const auto inflated = MakeModelWithObservations(0.0, 4.0);
  GpRangeAccumulator a(&plain), b(&inflated);
  a.SetRange(0, 9);
  b.SetRange(0, 9);
  // Inflation 4 on the GP variance part doubles its std contribution.
  EXPECT_NEAR(b.TotalStdDev(), 2.0 * a.TotalStdDev(), 1e-9);
}

TEST(GpRangeAccumulatorTest, IncrementalOpsHandleExactSubsets) {
  const auto model = MakeModelWithObservations(0.02);
  GpRangeAccumulator inc(&model), direct(&model);
  inc.SetRange(2, 6);
  inc.ExtendLeft();   // adds exact subset 1? (1 is odd -> non-exact)
  inc.ExtendRight();  // adds subset 7
  inc.ShrinkLeft();
  direct.SetRange(2, 7);
  EXPECT_NEAR(inc.TotalMean(), direct.TotalMean(), 1e-9);
  EXPECT_NEAR(inc.TotalStdDev(), direct.TotalStdDev(), 1e-9);
}

}  // namespace
}  // namespace humo::core
