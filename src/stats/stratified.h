#pragma once

#include <cstddef>
#include <vector>

namespace humo::stats {

/// One stratum of a stratified random sample over a finite population of
/// 0/1 outcomes (match / unmatch). In HUMO a stratum is one similarity-ordered
/// unit subset D_i.
struct Stratum {
  /// Population size of the stratum (n_i, number of pairs in the subset).
  size_t population = 0;
  /// Number of sampled units (s_i <= n_i).
  size_t sample_size = 0;
  /// Number of sampled units that are positive (matches).
  size_t sample_positives = 0;

  /// Observed match proportion p_i = sample_positives / sample_size
  /// (0 when nothing sampled).
  double proportion() const;

  /// Estimated variance of the proportion estimator with finite population
  /// correction (Cochran 1977, eq. 5.7):
  ///   var(p_i) = (1 - s_i/n_i) * p_i (1 - p_i) / (s_i - 1).
  /// Returns 0 when s_i < 2 would make it undefined but the stratum is fully
  /// enumerated; returns a conservative worst-case (0.25) when s_i < 2 and
  /// the stratum is not fully enumerated.
  double proportion_variance() const;

  /// True if every unit was inspected (no sampling error).
  bool fully_enumerated() const { return sample_size >= population; }
};

/// Aggregate estimate of the total number of positives in a union of strata,
/// with a confidence interval from the stratified-sampling theory the paper
/// cites (Cochran; Student-t critical values, Eq. 12).
struct StratifiedEstimate {
  /// Point estimate of the total positives: sum n_i * p_i.
  double total_mean = 0.0;
  /// Standard deviation of the total estimate: sqrt(sum n_i^2 var(p_i)).
  double total_stddev = 0.0;
  /// Effective degrees of freedom used for the t critical value.
  double degrees_of_freedom = 0.0;
  /// Total population across strata.
  size_t population = 0;

  /// Two-sided bounds at the given confidence, clamped to [0, population].
  double LowerBound(double confidence) const;
  double UpperBound(double confidence) const;
};

/// Combines strata into an estimate of the total number of positives.
///
/// Degrees of freedom follow the common stratified-sampling convention
/// d.f. = sum_i (s_i - 1) over strata that were actually sampled (Cochran
/// 5A.42 simplification); strata that are fully enumerated contribute no
/// sampling variance and no d.f.
StratifiedEstimate CombineStrata(const std::vector<Stratum>& strata);

/// Mean match proportion of the union (R bar of the paper) = total_mean / N.
double UnionProportion(const StratifiedEstimate& est);

}  // namespace humo::stats
