// Microbenchmark of the incremental GP machinery behind SAMP/HYBR rounds:
//
//   refit:   full hyperparameter-grid re-selection from scratch every round
//            (the legacy HUMO_GP_INCREMENTAL=0 path) vs. rank-k Cholesky
//            appends on the previous winner (Cholesky::Append via
//            GpRegression::ExtendedWith — the warm-start path)
//   predict: per-point GpRegression::Predict in a loop vs. PredictBatch
//            (one cross-Gram build + one blocked multi-RHS solve)
//
// across training sizes n in {64, 128, 256, 512}. Results go to stdout and,
// machine-readably, to BENCH_gp_refit.json in the working directory, the
// contract tools/check_bench_regression.py gates against the committed copy.
//
// The bench also *checks* the contracts it advertises — batch predictions
// must equal per-point predictions bit-for-bit and the appended fit must
// agree with a from-scratch fit of the same kernel within 1e-9 — and exits
// nonzero on violation, so the committed JSON can't silently go stale.
//
// Environment knobs (all optional):
//   HUMO_GP_BENCH_MAX_N    largest training size to run (default 512; CI
//                          smoke uses 64)
//   HUMO_GP_BENCH_ROUNDS   appended-observation rounds per size (default 8)
//   HUMO_GP_BENCH_QUERIES  prediction batch size (default 100)
//   HUMO_GP_BENCH_REPS     timing repetitions, best-of (default 3)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "humo.h"

using namespace humo;

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SyntheticData {
  std::vector<double> x, y, noise;
};

/// Sorted similarities with a logistic match-proportion curve plus scatter —
/// the shape SAMP actually fits (see data/logistic_generator).
SyntheticData MakeData(size_t count, uint64_t seed) {
  Rng rng(seed);
  SyntheticData d;
  d.x.reserve(count);
  for (size_t i = 0; i < count; ++i) d.x.push_back(rng.NextDouble());
  std::sort(d.x.begin(), d.x.end());
  for (size_t i = 0; i < count; ++i) {
    const double latent = 1.0 / (1.0 + std::exp(-14.0 * (d.x[i] - 0.5)));
    d.y.push_back(std::clamp(latent + 0.05 * rng.NextGaussian(), 0.0, 1.0));
    d.noise.push_back(1e-4);
  }
  return d;
}

std::vector<double> Slice(const std::vector<double>& v, size_t count) {
  return std::vector<double>(v.begin(), v.begin() + count);
}

struct SizeResult {
  size_t n = 0;
  double refit_full_ms = 0.0;
  double refit_incremental_ms = 0.0;
  double refit_speedup = 0.0;
  double predict_per_point_ms = 0.0;
  double predict_batch_ms = 0.0;
  double predict_speedup = 0.0;
};

bool BitEqual(double a, double b) { return a == b || (a != a && b != b); }

int RunSize(size_t n, size_t rounds, size_t queries, size_t reps,
            SizeResult* out) {
  out->n = n;
  const SyntheticData data = MakeData(n + rounds, /*seed=*/n);
  // Same candidate filter the SAMP optimizer applies (length scales at
  // least 1.5x the largest similarity gap): unfiltered ultra-short scales
  // are never fit in production, and their near-underflow kernel values
  // drag both timing paths into denormal territory.
  double max_gap = 0.0;
  for (size_t t = 1; t < n; ++t)
    max_gap = std::max(max_gap, data.x[t] - data.x[t - 1]);
  std::vector<gp::GpCandidate> grid;
  for (const auto& cand : gp::DefaultGpGrid())
    if (cand.length_scale >= 1.5 * max_gap) grid.push_back(cand);
  if (grid.empty()) grid.push_back({0.25, 1.5 * max_gap});
  gp::GpOptions options;
  options.noise_variance = 1e-8;

  // Baseline model both refit paths start from: the grid winner on the
  // first n observations.
  auto base = gp::SelectGpByMarginalLikelihood(
      Slice(data.x, n), Slice(data.y, n), grid, gp::KernelFamily::kRbf,
      options, Slice(data.noise, n));
  if (!base.ok()) {
    std::fprintf(stderr, "base fit failed at n=%zu: %s\n", n,
                 base.status().ToString().c_str());
    return 1;
  }

  // ---- Round-over-round refits: full grid vs. append + warm start. ----
  double best_full = 1e300, best_incr = 1e300;
  for (size_t rep = 0; rep < reps; ++rep) {
    const double t0 = NowMs();
    for (size_t r = 1; r <= rounds; ++r) {
      auto fit = gp::SelectGpByMarginalLikelihood(
          Slice(data.x, n + r), Slice(data.y, n + r), grid,
          gp::KernelFamily::kRbf, options, Slice(data.noise, n + r));
      if (!fit.ok()) return 1;
    }
    best_full = std::min(best_full, NowMs() - t0);

    const double t1 = NowMs();
    gp::GpRegression model = base->Clone();
    for (size_t r = 1; r <= rounds; ++r) {
      auto warm = model.ExtendedWith({data.x[n + r - 1]}, {data.y[n + r - 1]},
                                     {data.noise[n + r - 1]});
      if (!warm.ok()) return 1;
      // The warm-start acceptance test FitGp applies each round.
      const double per_datum = warm->LogMarginalLikelihood() /
                               static_cast<double>(warm->num_training_points());
      if (per_datum < -1e12) return 1;  // keep the check from folding away
      model = std::move(*warm);
    }
    best_incr = std::min(best_incr, NowMs() - t1);

    if (rep == 0) {
      // Contract check: the appended model must agree with a from-scratch
      // fit of the SAME kernel on the same data within 1e-9.
      auto scratch = gp::GpRegression::Fit(
          model.kernel().Clone(), Slice(data.x, n + rounds),
          Slice(data.y, n + rounds), options, Slice(data.noise, n + rounds));
      if (!scratch.ok()) return 1;
      for (double q : {0.05, 0.31, 0.5, 0.77, 0.96}) {
        const auto a = model.Predict(q);
        const auto b = scratch->Predict(q);
        if (std::fabs(a.mean - b.mean) > 1e-9 ||
            std::fabs(a.variance - b.variance) > 1e-9) {
          std::fprintf(stderr,
                       "append/from-scratch divergence at n=%zu, x=%g: "
                       "mean %.17g vs %.17g\n",
                       n, q, a.mean, b.mean);
          return 1;
        }
      }
    }
  }
  out->refit_full_ms = best_full;
  out->refit_incremental_ms = best_incr;
  out->refit_speedup = best_full / best_incr;

  // ---- Prediction: per-point loop vs. one batched call. ----
  Rng qrng(17);
  std::vector<double> qs(queries);
  for (double& q : qs) q = qrng.NextDouble();
  const gp::GpRegression& gp_model = *base;
  std::vector<gp::Prediction> per_point(queries), batched;
  for (size_t rep = 0; rep < reps; ++rep) {
    const double t0 = NowMs();
    for (size_t j = 0; j < queries; ++j) per_point[j] = gp_model.Predict(qs[j]);
    out->predict_per_point_ms =
        rep == 0 ? NowMs() - t0
                 : std::min(out->predict_per_point_ms, NowMs() - t0);

    const double t1 = NowMs();
    batched = gp_model.PredictBatch(qs);
    out->predict_batch_ms =
        rep == 0 ? NowMs() - t1 : std::min(out->predict_batch_ms, NowMs() - t1);
  }
  for (size_t j = 0; j < queries; ++j) {
    if (!BitEqual(per_point[j].mean, batched[j].mean) ||
        !BitEqual(per_point[j].variance, batched[j].variance)) {
      std::fprintf(stderr,
                   "batch/per-point divergence at n=%zu, query %zu: "
                   "%.17g vs %.17g\n",
                   n, j, per_point[j].mean, batched[j].mean);
      return 1;
    }
  }
  out->predict_speedup = out->predict_per_point_ms / out->predict_batch_ms;
  return 0;
}

}  // namespace

int main() {
  const size_t max_n =
      static_cast<size_t>(GetEnvInt64("HUMO_GP_BENCH_MAX_N", 512));
  const size_t rounds =
      static_cast<size_t>(GetEnvInt64("HUMO_GP_BENCH_ROUNDS", 8));
  const size_t queries =
      static_cast<size_t>(GetEnvInt64("HUMO_GP_BENCH_QUERIES", 100));
  const size_t reps = static_cast<size_t>(GetEnvInt64("HUMO_GP_BENCH_REPS", 3));

  std::printf("micro_gp_refit: incremental GP refits and batched prediction\n");
  std::printf("threads=%zu rounds=%zu queries=%zu reps=%zu\n\n",
              ThreadPool::Global()->num_threads(), rounds, queries, reps);
  std::printf("%6s | %14s %14s %8s | %14s %14s %8s\n", "n", "full-refit ms",
              "append ms", "speedup", "per-point ms", "batch ms", "speedup");

  std::vector<SizeResult> results;
  for (size_t n : {size_t{64}, size_t{128}, size_t{256}, size_t{512}}) {
    if (n > max_n) continue;
    SizeResult r;
    if (RunSize(n, rounds, queries, reps, &r) != 0) return 1;
    std::printf("%6zu | %14.3f %14.3f %7.1fx | %14.3f %14.3f %7.1fx\n", r.n,
                r.refit_full_ms, r.refit_incremental_ms, r.refit_speedup,
                r.predict_per_point_ms, r.predict_batch_ms, r.predict_speedup);
    results.push_back(r);
  }

  std::vector<bench::JsonFields> rows;
  for (const SizeResult& r : results) {
    bench::JsonFields& f = rows.emplace_back();
    f.emplace_back("n", r.n);
    f.emplace_back("refit_full_ms", r.refit_full_ms, "%.6f");
    f.emplace_back("refit_incremental_ms", r.refit_incremental_ms, "%.6f");
    f.emplace_back("refit_speedup", r.refit_speedup);
    f.emplace_back("predict_per_point_ms", r.predict_per_point_ms, "%.6f");
    f.emplace_back("predict_batch_ms", r.predict_batch_ms, "%.6f");
    f.emplace_back("predict_speedup", r.predict_speedup);
  }
  bench::JsonFields head;
  head.emplace_back("bench", "micro_gp_refit");
  head.emplace_back("threads", ThreadPool::Global()->num_threads());
  head.emplace_back("rounds", rounds);
  head.emplace_back("queries", queries);
  head.emplace_back("reps", reps);
  if (!bench::WriteBenchJson("gp_refit", head, rows)) return 1;
  return 0;
}
