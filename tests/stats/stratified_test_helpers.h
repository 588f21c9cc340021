#pragma once

// Test scaffolding for the StratifiedEstimate interval tests: pools strata
// into one estimate of the total positives (sum n_i p_i, variance
// sum n_i^2 var(p_i), d.f. = sum (s_i - 1) over sampled strata that carry
// variance), the same accounting the optimizers keep in prefix sums.
#include <cmath>
#include <vector>

#include "stats/stratified.h"

namespace humo::stats {

inline StratifiedEstimate CombineStrata(const std::vector<Stratum>& strata) {
  StratifiedEstimate est;
  double var_total = 0.0;
  for (const auto& st : strata) {
    const double n = static_cast<double>(st.population);
    est.population += st.population;
    est.total_mean += n * st.proportion();
    const double v = st.proportion_variance();
    var_total += n * n * v;
    if (!st.fully_enumerated() && st.sample_size >= 2 && v > 0.0) {
      est.degrees_of_freedom += static_cast<double>(st.sample_size - 1);
    }
  }
  est.total_stddev = std::sqrt(var_total);
  return est;
}

}  // namespace humo::stats
