#pragma once

namespace humo::stats {

/// Standard normal cumulative distribution function, via erfc for accuracy in
/// the tails.
double NormalCdf(double x);

/// Inverse standard normal CDF (quantile). `p` must be in (0,1).
/// Acklam's rational approximation refined by one Halley step; absolute error
/// below 1e-9 over (1e-300, 1-1e-16).
double NormalQuantile(double p);

/// Two-sided standard normal critical value z such that
/// P(-z < Z < z) = confidence. This is the Z_(1-theta) of Eq. 21 in the
/// paper. `confidence` must be in (0,1).
double NormalTwoSidedCritical(double confidence);

/// Natural log of the gamma function (Lanczos approximation).
double LogGamma(double x);

/// Regularized incomplete beta function I_x(a, b), computed by the continued
/// fraction expansion (Lentz's algorithm).
double RegularizedIncompleteBeta(double a, double b, double x);

/// Student's t cumulative distribution function with `df` degrees of freedom.
/// `df` may be fractional (Satterthwaite effective d.f.).
double StudentTCdf(double t, double df);

/// Student's t quantile: inverse of StudentTCdf in t for fixed df.
/// `p` must be in (0,1).
double StudentTQuantile(double p, double df);

/// Two-sided Student's t critical value t~ such that P(-t~ < T < t~) =
/// confidence (the t_(1-theta, d.f.) of Eq. 12). For df <= 0 the normal
/// critical value is returned as the limiting distribution.
double StudentTTwoSidedCritical(double confidence, double df);

}  // namespace humo::stats
