#pragma once

#include <memory>
#include <vector>

#include "common/result.h"
#include "gp/kernel.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"

namespace humo::gp {

/// Posterior of a single query point.
struct Prediction {
  double mean = 0.0;
  double variance = 0.0;
  /// sqrt(max(0, variance)) — guards the tiny negative roundoff residue.
  double stddev() const;
};

/// Joint posterior over a set of query points: per-point means and the full
/// posterior covariance K(V*,V*) - K(V*,V) K(V,V)^-1 K(V,V*) (paper Eq. 20
/// needs the off-diagonal terms when aggregating subset match counts).
struct JointPrediction {
  std::vector<double> mean;
  linalg::Matrix covariance;

  /// Sum over points of n_i * mean_i, i.e. expected total positives when
  /// mean_i are match proportions and weights n_i are subset sizes (Eq. 19).
  double WeightedTotalMean(const std::vector<double>& weights) const;

  /// Std-dev of the weighted total: sqrt(sum_ij n_i n_j cov_ij) (Eq. 20).
  double WeightedTotalStdDev(const std::vector<double>& weights) const;
};

/// Options controlling GP fitting.
struct GpOptions {
  /// Homoscedastic observation-noise variance added to the training
  /// diagonal; per-point noise can additionally be supplied to Fit.
  double noise_variance = 1e-4;
  /// Subtract the training-mean before fitting and add it back at
  /// prediction (a constant mean function; keeps the zero-mean GP assumption
  /// honest for proportions that hover near 0.5).
  bool center_mean = true;
};

/// Gaussian-process regression over scalar inputs.
///
/// This implements §VI-B of the paper: the match proportions of unit subsets
/// are modeled as a joint Gaussian in their (average) similarity values,
/// the posterior supplies both interpolated proportions (Eq. 16-17) and the
/// covariance needed to bound totals over subset unions (Eq. 19-21).
class GpRegression {
 public:
  /// Fits the GP. `noise_variances`, when non-empty, must parallel `x` and
  /// adds heteroscedastic per-observation noise (sampling variance of each
  /// observed proportion) to the training diagonal. `pairwise_distances`,
  /// when non-null, must be PairwiseDistances(x) and lets the fit skip
  /// rebuilding the distance part of the Gram matrix — the hyperparameter
  /// grid selector passes one distance matrix to every candidate fit.
  static Result<GpRegression> Fit(
      std::unique_ptr<Kernel> kernel, std::vector<double> x,
      std::vector<double> y, GpOptions options = {},
      std::vector<double> noise_variances = {},
      const linalg::Matrix* pairwise_distances = nullptr);

  /// Deep copy (the kernel is cloned); fitted state is value-like.
  GpRegression Clone() const;

  /// Returns a model refitted on this model's training set extended by
  /// (x_new, y_new, noise_variances_new), reusing the existing Cholesky
  /// factor through a rank-k append (O(n^2 k) instead of the O(n^3)
  /// from-scratch refactor; kernel hyperparameters are kept). The appended
  /// rows use the factor's original jitter, so the result is bit-identical
  /// to Fit on the concatenated training set whenever that fit lands on
  /// the same jitter (and within factorization roundoff otherwise). When
  /// the append hits a non-positive pivot an error is returned and the
  /// caller must fall back to a full Fit.
  Result<GpRegression> ExtendedWith(
      const std::vector<double>& x_new, const std::vector<double>& y_new,
      const std::vector<double>& noise_variances_new = {}) const;

  /// Posterior mean/variance at one query point.
  Prediction Predict(double x_star) const;

  /// Posterior means/variances at many query points: K(V*, V) rows plus
  /// blocked multi-right-hand-side triangular solves in place
  /// (Cholesky::SolveLowerRows) instead of a per-point solve each. Entry i
  /// is bit-identical to Predict(x_star[i]) at any thread count. Without
  /// `whitened` the queries are walked in fixed chunks, so scratch is
  /// O(chunk * n) whatever the batch size. When `whitened` is non-null it
  /// receives the q x n matrix whose row i is the whitened cross vector
  /// L^-1 k(V, x*_i) (what WhitenedCross returns per point), filled and
  /// solved in place as the only q x n buffer — GpSubsetModel consumes
  /// both in one pass.
  std::vector<Prediction> PredictBatch(
      const std::vector<double>& x_star,
      linalg::Matrix* whitened = nullptr) const;

  /// Joint posterior over many query points.
  JointPrediction PredictJoint(const std::vector<double>& x_star) const;

  /// Log marginal likelihood of the training data under the fitted kernel;
  /// used for hyperparameter selection.
  double LogMarginalLikelihood() const;

  /// Whitened cross-covariance w(x*) = L^-1 k(V, x*). The posterior
  /// covariance of two query points decomposes as
  ///   cov(a, b) = k(a, b) - w(a).w(b),
  /// which lets range aggregations (Eq. 20) be maintained incrementally in
  /// O(len(V)) per update instead of re-solving per query set.
  linalg::Vector WhitenedCross(double x_star) const;

  /// Posterior variance k(x*,x*) - w.w (clamped at 0) at a query point whose
  /// whitened cross vector `w` was already computed (a WhitenedCross result
  /// or a row of the PredictBatch out-param). O(len(V)) — no triangular
  /// solve — which is what makes per-subset risk scoring over cached
  /// whitened vectors cheap (GpSubsetModel::PosteriorVariance). `w` points
  /// at num_training_points() doubles produced by THIS model; equals
  /// Predict(x_star).variance exactly.
  double PosteriorVarianceFromWhitened(double x_star, const double* w) const;

  /// The fitted kernel (hyperparameters as selected at Fit time).
  const Kernel& kernel() const { return *kernel_; }

  /// Number of training observations the posterior conditions on.
  size_t num_training_points() const { return x_.size(); }

  /// Training inputs/targets in insertion order (original, uncentered
  /// observations). Streaming consumers compare these against a candidate
  /// training set to decide between ExtendedWith (old set is a prefix of
  /// the new one) and a from-scratch refit.
  const std::vector<double>& training_inputs() const { return x_; }
  const std::vector<double>& training_targets() const { return y_; }

 private:
  GpRegression() = default;

  /// Recomputes mean/centering, alpha, and the log marginal likelihood from
  /// x_/y_/chol_ — the shared tail of Fit and ExtendedWith.
  void FinishFit();

  std::unique_ptr<Kernel> kernel_;
  GpOptions options_;
  std::vector<double> x_;
  std::vector<double> y_;  // original observations (ExtendedWith re-centers)
  std::vector<double> y_centered_;
  double y_mean_ = 0.0;
  linalg::Cholesky chol_;
  linalg::Vector alpha_;  // K^-1 (y - mean)
  double log_marginal_ = 0.0;
};

/// Candidate hyperparameter grid entry for SelectGpByMarginalLikelihood.
struct GpCandidate {
  double signal_variance;
  double length_scale;
};

/// Kernel families the selector can instantiate.
enum class KernelFamily { kRbf, kMatern32, kMatern52 };

/// Scores every candidate of a small grid by log marginal likelihood and
/// returns the GP fitted with the best one (simple, derivative-free model
/// selection; adequate for 1-D inputs). The pairwise-distance matrix of `x`
/// is computed ONCE and shared by every candidate (all kernel families are
/// stationary), so the per-candidate cost is the factorization alone.
/// Candidates are scored by LML alone: each pool thread factors one
/// candidate at a time in a reused Gram buffer and keeps only the LML. The
/// winner (first strict maximum; a failed factorization never wins) is then
/// fitted from scratch by the last pool thread to finish, bit-identical to
/// what the grid scored, and handed back in the caller's heap. So at most
/// one Gram matrix and one factor per pool thread are alive, plus the
/// returned model. Shape errors in `x`, `y` or `noise_variances` return
/// Fit's InvalidArgument; Internal means every candidate failed to factor.
Result<GpRegression> SelectGpByMarginalLikelihood(
    const std::vector<double>& x, const std::vector<double>& y,
    const std::vector<GpCandidate>& grid, KernelFamily family,
    GpOptions options = {}, std::vector<double> noise_variances = {});

/// A sensible default grid for similarity inputs in [0,1].
std::vector<GpCandidate> DefaultGpGrid();

/// DefaultGpGrid() restricted to length scales of at least 1.5x the largest
/// gap between adjacent training inputs (`xs` in any order; a sorted copy is
/// taken). A shorter scale would interpolate the training points perfectly
/// yet predict at full prior variance inside every gap — useless exactly
/// where no evidence is. When every stock scale is below the threshold, a
/// small fallback grid proportional to the gap itself is returned. Shared
/// by the SAMP certification fit and the streaming provisional fit so the
/// two models can never diverge on this guard.
std::vector<GpCandidate> GapGuardedGrid(const std::vector<double>& xs);

}  // namespace humo::gp
