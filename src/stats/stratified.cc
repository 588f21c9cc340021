#include "stats/stratified.h"

#include <algorithm>
#include <cmath>

#include "stats/distributions.h"

namespace humo::stats {

double Stratum::proportion() const {
  if (sample_size == 0) return 0.0;
  return static_cast<double>(sample_positives) /
         static_cast<double>(sample_size);
}

double Stratum::proportion_variance() const {
  if (population == 0) return 0.0;
  if (fully_enumerated()) return 0.0;
  if (sample_size < 2) return 0.25;  // worst case p(1-p) with no fpc
  const double s = static_cast<double>(sample_size);
  const double n = static_cast<double>(population);
  const double p = proportion();
  const double fpc = 1.0 - s / n;
  return fpc * p * (1.0 - p) / (s - 1.0);
}

double StratifiedEstimate::LowerBound(double confidence) const {
  if (total_stddev == 0.0) return std::max(0.0, total_mean);
  const double t = StudentTTwoSidedCritical(confidence, degrees_of_freedom);
  return std::max(0.0, total_mean - t * total_stddev);
}

double StratifiedEstimate::UpperBound(double confidence) const {
  if (total_stddev == 0.0)
    return std::min(static_cast<double>(population), total_mean);
  const double t = StudentTTwoSidedCritical(confidence, degrees_of_freedom);
  return std::min(static_cast<double>(population),
                  total_mean + t * total_stddev);
}

}  // namespace humo::stats
