#include "stats/special_functions.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace exsample {
namespace stats {

namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-15;
constexpr double kTiny = 1e-300;

// log(x^a e^-x / Gamma(a)): the factor the series and the continued fraction
// share.
double LogFront(double a, double x, double log_gamma_a) {
  return -x + a * std::log(x) - log_gamma_a;
}

// Series representation of P(a, x) without its `LogFront` factor; valid
// (fast-converging) for x < a + 1.
double GammaPSeries(double a, double x) {
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  for (int i = 0; i < kMaxIterations; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * kEpsilon) break;
  }
  return sum;
}

// Continued-fraction representation of Q(a, x) without its `LogFront`
// factor; valid for x >= a + 1 (modified Lentz algorithm).
double GammaQContinuedFraction(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEpsilon) break;
  }
  return h;
}

// Standard-normal quantile (Beasley–Springer–Moro style rational
// approximation): a starting point for Newton, not a final answer.
double NormalQuantile(double q) {
  static const double a1 = -39.69683028665376, a2 = 220.9460984245205,
                      a3 = -275.9285104469687, a4 = 138.3577518672690,
                      a5 = -30.66479806614716, a6 = 2.506628277459239;
  static const double b1 = -54.47609879822406, b2 = 161.5858368580409,
                      b3 = -155.6989798598866, b4 = 66.80131188771972,
                      b5 = -13.28068155288572;
  static const double c1 = -0.007784894002430293, c2 = -0.3223964580411365,
                      c3 = -2.400758277161838, c4 = -2.549732539343734,
                      c5 = 4.374664141464968, c6 = 2.938163982698783;
  static const double d1 = 0.007784695709041462, d2 = 0.3224671290700398,
                      d3 = 2.445134137142996, d4 = 3.754408661907416;
  const double p_low = 0.02425;
  if (q < p_low) {
    const double r = std::sqrt(-2.0 * std::log(q));
    return (((((c1 * r + c2) * r + c3) * r + c4) * r + c5) * r + c6) /
           ((((d1 * r + d2) * r + d3) * r + d4) * r + 1.0);
  }
  if (q <= 1.0 - p_low) {
    const double r = q - 0.5;
    const double s = r * r;
    return (((((a1 * s + a2) * s + a3) * s + a4) * s + a5) * s + a6) * r /
           (((((b1 * s + b2) * s + b3) * s + b4) * s + b5) * s + 1.0);
  }
  const double r = std::sqrt(-2.0 * std::log(1.0 - q));
  return -(((((c1 * r + c2) * r + c3) * r + c4) * r + c5) * r + c6) /
         ((((d1 * r + d2) * r + d3) * r + d4) * r + 1.0);
}

// Moves a Newton step that left the bracket [lo, hi] back inside it. For
// small shapes the root can sit at extreme scales (e.g. 1e-21 for a = 0.1,
// p = 0.01), so the fallback bisects *geometrically*, which resolves any
// double-precision magnitude in ~60 steps.
double SafeguardStep(double next, double x, double lo, double hi) {
  if (next > lo && next < hi && std::isfinite(next)) return next;
  if (std::isinf(hi)) return x * 2.0;
  if (lo <= 0.0) return hi / 2.0;
  return std::sqrt(lo * hi);
}

}  // namespace

double RegularizedGammaP(double a, double x) {
  assert(a > 0.0);
  if (x <= 0.0) return 0.0;
  if (std::isinf(x)) return 1.0;
  const double front = std::exp(LogFront(a, x, std::lgamma(a)));
  if (x < a + 1.0) return GammaPSeries(a, x) * front;
  return 1.0 - front * GammaQContinuedFraction(a, x);
}

double RegularizedGammaQ(double a, double x) {
  return RegularizedGammaQ(a, x, std::lgamma(a));
}

double RegularizedGammaQ(double a, double x, double log_gamma_a) {
  assert(a > 0.0);
  if (x <= 0.0) return 1.0;
  if (std::isinf(x)) return 0.0;
  const double front = std::exp(LogFront(a, x, log_gamma_a));
  if (x < a + 1.0) return 1.0 - GammaPSeries(a, x) * front;
  return front * GammaQContinuedFraction(a, x);
}

double InverseRegularizedGammaP(double a, double p) {
  assert(a > 0.0);
  assert(p >= 0.0 && p < 1.0);
  if (p == 0.0) return 0.0;

  // Wilson–Hilferty: the cube root of a Gamma variate is approximately
  // normal, with z the standard-normal quantile of p; Newton cleans it up.
  const double z = NormalQuantile(p);
  const double t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * std::sqrt(a));
  double x = a * t * t * t;
  if (x <= 0.0 || !std::isfinite(x)) x = a * std::exp((std::log(p) + std::lgamma(a + 1.0)) / a);
  if (x <= 0.0 || !std::isfinite(x)) x = kTiny;

  // Safeguarded Newton on f(x) = P(a, x) - p with bracketing fallback.
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < 300; ++iter) {
    const double f = RegularizedGammaP(a, x) - p;
    if (std::fabs(f) < 1e-12) break;
    if (f > 0.0) {
      hi = std::min(hi, x);
    } else {
      lo = std::max(lo, x);
    }
    const double log_pdf = -x + (a - 1.0) * std::log(x) - std::lgamma(a);
    const double pdf = std::exp(log_pdf);
    double next;
    if (pdf > 0.0 && std::isfinite(pdf)) {
      next = x - f / pdf;
    } else {
      next = std::numeric_limits<double>::quiet_NaN();
    }
    next = SafeguardStep(next, x, lo, hi);
    if (next == x) break;
    x = next;
  }
  return x;
}

double InverseRegularizedGammaQ(double a, double q) {
  return InverseRegularizedGammaQ(a, q, std::lgamma(a));
}

double InverseRegularizedGammaQ(double a, double q, double log_gamma_a) {
  assert(a > 0.0);
  assert(q >= 0.0 && q <= 1.0);
  if (q >= 1.0) return 0.0;
  if (q <= 0.0) return std::numeric_limits<double>::infinity();

  // Wilson–Hilferty at the upper normal quantile. Near x = 0 it goes
  // negative; there P(a, x) ~ x^a / Gamma(a + 1) inverts directly.
  const double z = -NormalQuantile(q);
  const double t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * std::sqrt(a));
  double x = a * t * t * t;
  if (x <= 0.0 || !std::isfinite(x)) {
    x = std::exp((std::log1p(-q) + log_gamma_a + std::log(a)) / a);
  }
  if (x <= 0.0 || !std::isfinite(x)) x = kTiny;

  // Safeguarded Halley iterations on f(x) = log Q(a, x) - log q, whose slope
  // is minus the hazard pdf(x) / Q(a, x). Working on the log bounds Q's
  // *relative* error, and the continued fraction yields log Q without forming
  // Q, so a tail that underflows a double still converges.
  const double log_target = std::log(q);
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < 300; ++iter) {
    const double log_front = LogFront(a, x, log_gamma_a);
    const double log_q = x < a + 1.0
                             ? std::log1p(-GammaPSeries(a, x) * std::exp(log_front))
                             : log_front + std::log(GammaQContinuedFraction(a, x));
    const double f = log_q - log_target;
    if (std::fabs(f) < 1e-10) break;
    if (f > 0.0) {
      lo = std::max(lo, x);
    } else {
      hi = std::min(hi, x);
    }
    // Halley's step, with the hazard h = pdf(x) / Q(a, x) = exp(log_front -
    // log Q) / x and its slope h' = h * ((a - 1) / x - 1 + h). Far from the
    // root, where the correction is large, it falls back to Newton's.
    const double hazard = std::exp(log_front - log_q) / x;
    const double correction = f * ((a - 1.0) / x - 1.0 + hazard) / (2.0 * hazard);
    const double step = std::fabs(correction) < 0.5 ? f / hazard / (1.0 + correction)
                                                    : f / hazard;
    const double next = SafeguardStep(x + step, x, lo, hi);
    // Halley converges cubically: from |f| < 1e-5 its step lands within
    // ~1e-15 of the root, so it is taken without another evaluation.
    if (std::fabs(f) < 1e-5 || next == x) return next;
    x = next;
  }
  return x;
}

}  // namespace stats
}  // namespace exsample
