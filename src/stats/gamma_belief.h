#ifndef EXSAMPLE_STATS_GAMMA_BELIEF_H_
#define EXSAMPLE_STATS_GAMMA_BELIEF_H_

#include "common/rng.h"
#include "common/status.h"

namespace exsample {
namespace stats {

/// \brief Gamma(alpha, beta) distribution used as the belief over a chunk's
/// future-result rate R (paper Eq. III.4).
///
/// Shape/rate parameterization: mean = alpha / beta, variance = alpha / beta².
/// ExSample instantiates this with alpha = N1_j + alpha0 and beta = n_j +
/// beta0, matching the point estimate R̂ = N1/n (Eq. III.1) in expectation and
/// the variance bound Var[R̂] <= E[R̂]/n (Eq. III.3) in spread.
class GammaBelief {
 public:
  /// Constructs the belief. Both parameters must be > 0 (asserted).
  GammaBelief(double alpha, double beta);

  /// \brief Validated factory; returns InvalidArgument for non-positive or
  /// non-finite parameters.
  static common::Result<GammaBelief> Make(double alpha, double beta);

  /// \brief Shape parameter.
  double alpha() const { return alpha_; }
  /// \brief Rate parameter.
  double beta() const { return beta_; }
  /// \brief Mean alpha / beta.
  double Mean() const { return alpha_ / beta_; }
  /// \brief Variance alpha / beta².
  double Variance() const { return alpha_ / (beta_ * beta_); }

  /// \brief Draws one sample (the Thompson-sampling primitive).
  double Sample(common::Rng& rng) const;

  /// \brief Probability density at x (0 for x < 0).
  double Pdf(double x) const;

  /// \brief Natural log of `Pdf` (-inf for x <= 0 unless alpha == 1).
  double LogPdf(double x) const;

  /// \brief Cumulative distribution function at x.
  double Cdf(double x) const;

  /// \brief Quantile function (inverse CDF) for q in [0, 1).
  ///
  /// Bayes-UCB uses the upper quantile of this belief in place of Thompson
  /// samples.
  double Quantile(double q) const;

 private:
  double alpha_;
  double beta_;
};

}  // namespace stats
}  // namespace exsample

#endif  // EXSAMPLE_STATS_GAMMA_BELIEF_H_
