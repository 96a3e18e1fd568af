#ifndef EXSAMPLE_STATS_SPECIAL_FUNCTIONS_H_
#define EXSAMPLE_STATS_SPECIAL_FUNCTIONS_H_

namespace exsample {
namespace stats {

/// \brief Regularized lower incomplete gamma function P(a, x).
///
/// P(a, x) = gamma(a, x) / Gamma(a), for a > 0 and x >= 0. This is the CDF of
/// a Gamma(shape=a, rate=1) random variable evaluated at x. Uses the series
/// expansion for x < a + 1 and the Lentz continued fraction otherwise
/// (Numerical Recipes `gammp`/`gammq`), accurate to ~1e-12.
double RegularizedGammaP(double a, double x);

/// \brief Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x).
double RegularizedGammaQ(double a, double x);

/// \brief `RegularizedGammaQ` with `log_gamma_a` = lgamma(a) supplied by a
/// caller that evaluates one shape many times.
double RegularizedGammaQ(double a, double x, double log_gamma_a);

/// \brief Inverse of `RegularizedGammaP` in x: returns x such that
/// P(a, x) = p, for p in [0, 1).
///
/// Wilson–Hilferty initial guess refined with safeguarded Newton iterations.
/// It stops on an *absolute* |P - p| < 1e-12, so it cannot resolve a far
/// upper tail; `InverseRegularizedGammaQ` does.
double InverseRegularizedGammaP(double a, double p);

/// \brief Inverse of `RegularizedGammaQ` in x: returns x such that
/// Q(a, x) = q, for q in (0, 1] (0 at q = 1, +inf at q = 0).
///
/// Halley iterations on log Q, so the result holds Q to a *relative* error
/// below 1e-10 however deep the tail: q = 1e-300 resolves as well as 0.5.
double InverseRegularizedGammaQ(double a, double q);

/// \brief `InverseRegularizedGammaQ` with `log_gamma_a` = lgamma(a) supplied.
double InverseRegularizedGammaQ(double a, double q, double log_gamma_a);

}  // namespace stats
}  // namespace exsample

#endif  // EXSAMPLE_STATS_SPECIAL_FUNCTIONS_H_
