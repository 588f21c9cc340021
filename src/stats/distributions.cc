#include "stats/distributions.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace humo::stats {
namespace {

constexpr double kPi = 3.141592653589793238462643383279502884;

}  // namespace

double NormalCdf(double x) {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double NormalQuantile(double p) {
  assert(p > 0.0 && p < 1.0);
  // Rational approximation (Acklam 2003-style coefficients), then a Halley
  // refinement step against the exact CDF.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // Halley refinement: x_{n+1} = x - f/(f' - f*f''/(2f')), f = CDF(x) - p.
  const double e = NormalCdf(x) - p;
  const double u = e * std::sqrt(2.0 * kPi) * std::exp(0.5 * x * x);
  x = x - u / (1.0 + 0.5 * x * u);
  return x;
}

double NormalTwoSidedCritical(double confidence) {
  assert(confidence > 0.0 && confidence < 1.0);
  return NormalQuantile(0.5 + confidence / 2.0);
}

double LogGamma(double x) {
  // Lanczos approximation, g = 7, n = 9.
  static const double coeffs[] = {
      0.99999999999980993,  676.5203681218851,   -1259.1392167224028,
      771.32342877765313,   -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};
  if (x < 0.5) {
    // Reflection formula.
    return std::log(kPi / std::sin(kPi * x)) - LogGamma(1.0 - x);
  }
  x -= 1.0;
  double acc = coeffs[0];
  const double t = x + 7.5;
  for (int i = 1; i < 9; ++i) acc += coeffs[i] / (x + static_cast<double>(i));
  return 0.5 * std::log(2.0 * kPi) + (x + 0.5) * std::log(t) - t +
         std::log(acc);
}

double RegularizedIncompleteBeta(double a, double b, double x) {
  assert(a > 0.0 && b > 0.0);
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  // Use the symmetry relation to keep the continued fraction convergent.
  if (x > (a + 1.0) / (a + b + 2.0)) {
    return 1.0 - RegularizedIncompleteBeta(b, a, 1.0 - x);
  }
  const double log_prefix = LogGamma(a + b) - LogGamma(a) - LogGamma(b) +
                            a * std::log(x) + b * std::log1p(-x);
  // Modified Lentz's algorithm for the continued fraction.
  const double kTiny = 1e-300;
  double f = kTiny, c = kTiny, d = 0.0;
  for (int m = 0; m <= 400; ++m) {
    double numerator;
    if (m == 0) {
      numerator = 1.0;
    } else if (m % 2 == 0) {
      const double k = m / 2.0;
      numerator = k * (b - k) * x / ((a + 2.0 * k - 1.0) * (a + 2.0 * k));
    } else {
      const double k = (m - 1.0) / 2.0;
      numerator =
          -(a + k) * (a + b + k) * x / ((a + 2.0 * k) * (a + 2.0 * k + 1.0));
    }
    d = 1.0 + numerator * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    d = 1.0 / d;
    c = 1.0 + numerator / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    const double delta = c * d;
    f *= delta;
    if (m > 0 && std::fabs(delta - 1.0) < 1e-15) break;
  }
  return std::exp(log_prefix) * f / a;
}

double StudentTCdf(double t, double df) {
  assert(df > 0.0);
  if (std::isinf(t)) return t > 0 ? 1.0 : 0.0;
  const double x = df / (df + t * t);
  const double tail = 0.5 * RegularizedIncompleteBeta(df / 2.0, 0.5, x);
  return t >= 0.0 ? 1.0 - tail : tail;
}

double StudentTQuantile(double p, double df) {
  assert(p > 0.0 && p < 1.0);
  assert(df > 0.0);
  if (p == 0.5) return 0.0;
  // Bracket then bisect on the monotone CDF; 128 iterations give full double
  // precision on any realistic bracket width.
  double lo = -1.0, hi = 1.0;
  while (StudentTCdf(lo, df) > p) lo *= 2.0;
  while (StudentTCdf(hi, df) < p) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (StudentTCdf(mid, df) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12 * std::max(1.0, std::fabs(hi))) break;
  }
  return 0.5 * (lo + hi);
}

double StudentTTwoSidedCritical(double confidence, double df) {
  assert(confidence > 0.0 && confidence < 1.0);
  if (df <= 0.0 || std::isinf(df)) return NormalTwoSidedCritical(confidence);
  return StudentTQuantile(0.5 + confidence / 2.0, df);
}

}  // namespace humo::stats
