#include "gp/gp_regression.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <thread>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace humo::gp {
namespace {

constexpr double kLog2Pi = 1.8378770664093454835606594728112;

/// Queries per chunk of a PredictBatch that keeps no whitened output. A
/// multiple of 16, so every chunk but the last splits into whole 16-wide
/// solve blocks; the chunking never changes a bit of any row (each row's
/// solve is the scalar SolveLower chain whatever block it lands in).
constexpr size_t kPredictChunkRows = 1024;

/// The shape checks Fit applies to its training set, shared with the grid
/// selector so a malformed set fails with the same message either way.
Status CheckTrainingShapes(size_t x_size, size_t y_size,
                           size_t noise_variances_size) {
  if (x_size != y_size)
    return Status::InvalidArgument(
        StrFormat("x/y size mismatch: %zu vs %zu", x_size, y_size));
  if (x_size == 0) return Status::InvalidArgument("empty training set");
  if (noise_variances_size != 0 && noise_variances_size != x_size)
    return Status::InvalidArgument("noise_variances must parallel x");
  return Status::OK();
}

/// Adds the observation noise of the training diagonal: the homoscedastic
/// floor, then each point's own variance.
void AddTrainingNoise(const GpOptions& options,
                      const std::vector<double>& noise_variances,
                      linalg::Matrix* k) {
  k->AddToDiagonal(options.noise_variance);
  for (size_t i = 0; i < noise_variances.size(); ++i)
    (*k)(i, i) += noise_variances[i];
}

/// The constant mean subtracted from the targets (0 without center_mean).
double TargetMean(const std::vector<double>& y, const GpOptions& options) {
  if (!options.center_mean) return 0.0;
  double mean = 0.0;
  for (double v : y) mean += v;
  return mean / static_cast<double>(y.size());
}

/// log p(y | X) = -y'K^-1 y / 2 - log|K| / 2 - n log(2 pi) / 2, from the
/// factor of K, the centered targets y and alpha = K^-1 y.
double LogMarginal(const linalg::Cholesky& chol,
                   const std::vector<double>& y_centered,
                   const linalg::Vector& alpha) {
  const double n = static_cast<double>(y_centered.size());
  return -0.5 * linalg::Dot(y_centered, alpha) -
         0.5 * chol.LogDeterminant() - 0.5 * n * kLog2Pi;
}

std::unique_ptr<Kernel> MakeKernel(KernelFamily family,
                                   const GpCandidate& cand) {
  switch (family) {
    case KernelFamily::kRbf:
      return std::make_unique<RbfKernel>(cand.signal_variance,
                                         cand.length_scale);
    case KernelFamily::kMatern32:
      return std::make_unique<Matern32Kernel>(cand.signal_variance,
                                              cand.length_scale);
    case KernelFamily::kMatern52:
      return std::make_unique<Matern52Kernel>(cand.signal_variance,
                                              cand.length_scale);
  }
  return nullptr;
}

}  // namespace

double Prediction::stddev() const { return std::sqrt(std::max(0.0, variance)); }

double JointPrediction::WeightedTotalMean(
    const std::vector<double>& weights) const {
  assert(weights.size() == mean.size());
  double acc = 0.0;
  for (size_t i = 0; i < mean.size(); ++i) acc += weights[i] * mean[i];
  return acc;
}

double JointPrediction::WeightedTotalStdDev(
    const std::vector<double>& weights) const {
  assert(weights.size() == mean.size());
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i)
    for (size_t j = 0; j < weights.size(); ++j)
      acc += weights[i] * weights[j] * covariance(i, j);
  return std::sqrt(std::max(0.0, acc));
}

void GpRegression::FinishFit() {
  y_mean_ = TargetMean(y_, options_);
  y_centered_.resize(y_.size());
  for (size_t i = 0; i < y_.size(); ++i) y_centered_[i] = y_[i] - y_mean_;
  alpha_ = chol_.Solve(y_centered_);
  log_marginal_ = LogMarginal(chol_, y_centered_, alpha_);
}

Result<GpRegression> GpRegression::Fit(
    std::unique_ptr<Kernel> kernel, std::vector<double> x,
    std::vector<double> y, GpOptions options,
    std::vector<double> noise_variances,
    const linalg::Matrix* pairwise_distances) {
  if (!kernel) return Status::InvalidArgument("kernel must not be null");
  HUMO_RETURN_NOT_OK(
      CheckTrainingShapes(x.size(), y.size(), noise_variances.size()));
  if (pairwise_distances != nullptr &&
      (pairwise_distances->rows() != x.size() ||
       pairwise_distances->cols() != x.size()))
    return Status::InvalidArgument("pairwise_distances must be n x n");

  GpRegression gp;
  gp.kernel_ = std::move(kernel);
  gp.options_ = options;
  gp.x_ = std::move(x);
  gp.y_ = std::move(y);

  linalg::Matrix k = pairwise_distances != nullptr
                         ? gp.kernel_->GramFromDistances(*pairwise_distances)
                         : gp.kernel_->GramSymmetric(gp.x_);
  AddTrainingNoise(options, noise_variances, &k);

  HUMO_ASSIGN_OR_RETURN(gp.chol_, linalg::Cholesky::Factor(k));
  gp.FinishFit();
  return gp;
}

GpRegression GpRegression::Clone() const {
  GpRegression gp;
  gp.kernel_ = kernel_->Clone();
  gp.options_ = options_;
  gp.x_ = x_;
  gp.y_ = y_;
  gp.y_centered_ = y_centered_;
  gp.y_mean_ = y_mean_;
  gp.chol_ = chol_;
  gp.alpha_ = alpha_;
  gp.log_marginal_ = log_marginal_;
  return gp;
}

Result<GpRegression> GpRegression::ExtendedWith(
    const std::vector<double>& x_new, const std::vector<double>& y_new,
    const std::vector<double>& noise_variances_new) const {
  if (x_new.size() != y_new.size())
    return Status::InvalidArgument(
        StrFormat("x/y size mismatch: %zu vs %zu", x_new.size(), y_new.size()));
  if (!noise_variances_new.empty() &&
      noise_variances_new.size() != x_new.size())
    return Status::InvalidArgument("noise_variances_new must parallel x_new");
  if (x_new.empty()) return Clone();

  const size_t n = x_.size();
  const size_t k = x_new.size();
  // New rows of the bordered Gram matrix: cross-covariances against the
  // existing training set, then the new block's lower triangle, with the
  // same two diagonal additions Fit applies (noise floor, then per-point
  // noise) so the extended matrix matches a from-scratch build bit-for-bit.
  linalg::Matrix rows(k, n + k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t t = 0; t < n; ++t) rows(i, t) = (*kernel_)(x_new[i], x_[t]);
    for (size_t j = 0; j <= i; ++j)
      rows(i, n + j) = (*kernel_)(x_new[i], x_new[j]);
    rows(i, n + i) += options_.noise_variance;
    if (!noise_variances_new.empty()) rows(i, n + i) += noise_variances_new[i];
  }

  GpRegression gp;
  gp.kernel_ = kernel_->Clone();
  gp.options_ = options_;
  gp.x_ = x_;
  gp.x_.insert(gp.x_.end(), x_new.begin(), x_new.end());
  gp.y_ = y_;
  gp.y_.insert(gp.y_.end(), y_new.begin(), y_new.end());
  // Extended (not copy + Append): the frozen factor block is copied once,
  // directly into the extended matrix.
  HUMO_ASSIGN_OR_RETURN(gp.chol_, chol_.Extended(rows));
  gp.FinishFit();
  return gp;
}

Prediction GpRegression::Predict(double x_star) const {
  const size_t n = x_.size();
  linalg::Vector k_star(n);
  kernel_->FillRow(x_star, x_.data(), n, k_star.data());
  Prediction p;
  p.mean = y_mean_ + linalg::Dot(k_star, alpha_);
  const linalg::Vector v = chol_.SolveLower(k_star);
  p.variance = (*kernel_)(x_star, x_star) - linalg::Dot(v, v);
  if (p.variance < 0.0) p.variance = 0.0;
  return p;
}

std::vector<Prediction> GpRegression::PredictBatch(
    const std::vector<double>& x_star, linalg::Matrix* whitened) const {
  const size_t n = x_.size();
  const size_t q = x_star.size();
  std::vector<Prediction> preds(q);
  // Posterior of queries [begin, begin + rows): K(V*, V) as rows x n (row j
  // is Predict's k_star for query begin + j — the cross-covariance is
  // symmetric in its arguments, so building it query-major is the same
  // values in a solve-friendly layout), means taken from it, then one
  // blocked multi-RHS forward substitution in place turns it into the
  // whitened cross vectors the variances are taken from. Pool tasks write
  // disjoint rows and disjoint preds slots.
  const auto posterior_rows = [&](size_t begin, size_t rows) {
    linalg::Matrix k_cross(rows, n);
    ThreadPool::Global()->ParallelFor(
        rows, /*grain=*/16, [&](size_t lo, size_t hi) {
          for (size_t j = lo; j < hi; ++j) {
            double* row = k_cross.RowPtr(j);
            kernel_->FillRow(x_star[begin + j], x_.data(), n, row);
            preds[begin + j].mean =
                y_mean_ + linalg::DotRange(row, alpha_.data(), n);
          }
        });
    linalg::Matrix w = chol_.SolveLowerRows(std::move(k_cross));
    ThreadPool::Global()->ParallelFor(
        rows, /*grain=*/16, [&](size_t lo, size_t hi) {
          for (size_t j = lo; j < hi; ++j) {
            const double x = x_star[begin + j];
            const double var = (*kernel_)(x, x) -
                               linalg::DotRange(w.RowPtr(j), w.RowPtr(j), n);
            preds[begin + j].variance = var < 0.0 ? 0.0 : var;
          }
        });
    return w;
  };
  if (whitened != nullptr) {
    *whitened = posterior_rows(0, q);
  } else {
    // Only the posteriors are kept, so the queries stream through in fixed
    // chunks: O(chunk * n) scratch instead of a q x n matrix.
    for (size_t begin = 0; begin < q; begin += kPredictChunkRows)
      posterior_rows(begin, std::min(kPredictChunkRows, q - begin));
  }
  return preds;
}

JointPrediction GpRegression::PredictJoint(
    const std::vector<double>& x_star) const {
  const size_t n = x_.size();
  const size_t q = x_star.size();
  JointPrediction jp;
  jp.mean.resize(q);
  // K(V*, V) — q x n, one row per query (see PredictBatch).
  linalg::Matrix k_cross(q, n);
  for (size_t j = 0; j < q; ++j)
    kernel_->FillRow(x_star[j], x_.data(), n, k_cross.RowPtr(j));
  // Means: y_mean + K(V*,V) alpha.
  for (size_t j = 0; j < q; ++j) {
    jp.mean[j] =
        y_mean_ + linalg::DotRange(k_cross.RowPtr(j), alpha_.data(), n);
  }
  // Posterior covariance: K(V*,V*) - K(V*,V) K^-1 K(V,V*)
  //                     = K(V*,V*) - W W^T with row j of W = L^-1 k(V, x*_j),
  // all rows obtained in one blocked multi-RHS substitution, in place.
  const linalg::Matrix w = chol_.SolveLowerRows(std::move(k_cross));
  jp.covariance = kernel_->GramSymmetric(x_star);
  for (size_t a = 0; a < q; ++a) {
    for (size_t b = 0; b <= a; ++b) {
      const double acc = linalg::DotRange(w.RowPtr(a), w.RowPtr(b), n);
      jp.covariance(a, b) -= acc;
      if (a != b) jp.covariance(b, a) = jp.covariance(a, b);
    }
  }
  // Clamp tiny negative diagonal values from roundoff.
  for (size_t a = 0; a < q; ++a)
    if (jp.covariance(a, a) < 0.0) jp.covariance(a, a) = 0.0;
  return jp;
}

double GpRegression::LogMarginalLikelihood() const { return log_marginal_; }

linalg::Vector GpRegression::WhitenedCross(double x_star) const {
  const size_t n = x_.size();
  linalg::Vector k_star(n);
  kernel_->FillRow(x_star, x_.data(), n, k_star.data());
  return chol_.SolveLower(k_star);
}

double GpRegression::PosteriorVarianceFromWhitened(double x_star,
                                                   const double* w) const {
  const double var = (*kernel_)(x_star, x_star) -
                     linalg::DotRange(w, w, x_.size());
  return var < 0.0 ? 0.0 : var;
}

Result<GpRegression> SelectGpByMarginalLikelihood(
    const std::vector<double>& x, const std::vector<double>& y,
    const std::vector<GpCandidate>& grid, KernelFamily family,
    GpOptions options, std::vector<double> noise_variances) {
  if (grid.empty()) return Status::InvalidArgument("empty candidate grid");
  // A shape error would fail every candidate alike; report it as Fit
  // would, before the n x n distance matrix is built for nothing.
  HUMO_RETURN_NOT_OK(
      CheckTrainingShapes(x.size(), y.size(), noise_variances.size()));
  // The pairwise distances are the kernel-independent part of every
  // candidate's Gram matrix; build them once for the whole grid instead of
  // re-deriving all n^2 of them inside each fit.
  const linalg::Matrix distances = PairwiseDistances(x);
  // Scoring a candidate needs its LML only, so no model is built. Workers
  // pull candidates from a shared cursor; each fills its one Gram buffer in
  // place per candidate (the entries GramFromDistances gives, plus Fit's
  // noise), factors it, records the LML and drops the factor. So at most one
  // n x n Gram and one factor per pool thread are alive, never a fit per
  // candidate, and no candidate pays the page faults of a fresh Gram
  // buffer. A failed factorization keeps -inf and, like a NaN, never wins.
  const size_t n = x.size();
  const double y_mean = TargetMean(y, options);
  std::vector<double> y_centered(n);
  for (size_t i = 0; i < n; ++i) y_centered[i] = y[i] - y_mean;
  std::vector<double> lmls(grid.size(),
                           -std::numeric_limits<double>::infinity());
  // The winner is selected with the strict-improvement rule (first-best
  // wins on ties), then fitted from scratch. Its Gram matrix, factor and
  // LML are the ones scored, bit for bit: the same expressions, and
  // Cholesky::Factor is bit-identical at any thread count.
  const auto fit_winner = [&]() -> Result<GpRegression> {
    size_t best = grid.size();
    double best_lml = -std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < grid.size(); ++c) {
      if (lmls[c] > best_lml) {
        best_lml = lmls[c];
        best = c;
      }
    }
    if (best == grid.size())
      return Status::Internal("no candidate produced a valid fit");
    Result<GpRegression> fit =
        GpRegression::Fit(MakeKernel(family, grid[best]), x, y, options,
                          noise_variances, &distances);
    assert(fit.ok() && fit->LogMarginalLikelihood() == best_lml);
    return fit;
  };
  ThreadPool* pool = ThreadPool::Global();
  const size_t slots = std::min(grid.size(), pool->num_threads());
  std::atomic<size_t> next_candidate{0};
  std::atomic<size_t> slots_left{slots};
  Result<GpRegression> winner = Status::Internal("grid was not scored");
  std::thread::id winner_thread;
  pool->ParallelFor(slots, /*grain=*/1, [&](size_t begin, size_t end) {
    {
      linalg::Matrix gram;
      for (size_t c; (c = next_candidate.fetch_add(1)) < grid.size();) {
        if (gram.empty()) gram = linalg::Matrix(n, n);
        const std::unique_ptr<Kernel> kernel = MakeKernel(family, grid[c]);
        for (size_t i = 0; i < n; ++i) {
          for (size_t j = 0; j <= i; ++j) {
            const double v = kernel->EvalDistance(distances(i, j));
            gram(i, j) = v;
            gram(j, i) = v;
          }
        }
        AddTrainingNoise(options, noise_variances, &gram);
        const Result<linalg::Cholesky> chol = linalg::Cholesky::Factor(gram);
        if (chol.ok())
          lmls[c] = LogMarginal(*chol, y_centered, chol->Solve(y_centered));
      }
    }
    // The last slot to finish has every LML and fits the winner in place,
    // inside the pool's region: nested ParallelFor calls run inline there,
    // so the factorization is the serial one rather than a pool dispatch
    // per column that contends with the process's other threads.
    if (slots_left.fetch_sub(end - begin) == end - begin) {
      winner = fit_winner();
      winner_thread = std::this_thread::get_id();
    }
  });
  // A model fitted on a pool thread lives in that thread's malloc arena,
  // where it would pin the freed candidate buffers beneath it for as long
  // as the caller keeps it. A copy into the caller's heap releases them
  // (without it certify_2m's peak RSS read 1-7 MB higher, run to run).
  if (winner.ok() && winner_thread != std::this_thread::get_id())
    return winner->Clone();
  return winner;
}

std::vector<GpCandidate> DefaultGpGrid() {
  std::vector<GpCandidate> grid;
  for (double sf2 : {0.0025, 0.01, 0.05, 0.25, 1.0}) {
    for (double l : {0.02, 0.05, 0.1, 0.2, 0.5, 1.0}) {
      grid.push_back({sf2, l});
    }
  }
  return grid;
}

std::vector<GpCandidate> GapGuardedGrid(const std::vector<double>& xs) {
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  double max_gap = 0.0;
  for (size_t t = 1; t < sorted.size(); ++t)
    max_gap = std::max(max_gap, sorted[t] - sorted[t - 1]);
  const double min_length_scale = 1.5 * max_gap;
  std::vector<GpCandidate> grid;
  for (const GpCandidate& cand : DefaultGpGrid()) {
    if (cand.length_scale >= min_length_scale) grid.push_back(cand);
  }
  if (grid.empty()) {
    // Gaps exceed every stock scale: fall back to scales proportional to
    // the gap itself.
    for (double sf2 : {0.01, 0.25, 1.0})
      grid.push_back({sf2, min_length_scale});
  }
  return grid;
}

}  // namespace humo::gp
