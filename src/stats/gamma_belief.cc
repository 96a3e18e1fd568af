#include "stats/gamma_belief.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "stats/special_functions.h"

namespace exsample {
namespace stats {

GammaBelief::GammaBelief(double alpha, double beta) : alpha_(alpha), beta_(beta) {
  assert(alpha_ > 0.0);
  assert(beta_ > 0.0);
}

common::Result<GammaBelief> GammaBelief::Make(double alpha, double beta) {
  if (!(alpha > 0.0 && beta > 0.0 && std::isfinite(alpha) && std::isfinite(beta))) {
    return common::Status::InvalidArgument(
        "GammaBelief requires finite alpha > 0 and beta > 0");
  }
  return GammaBelief(alpha, beta);
}

double GammaBelief::Sample(common::Rng& rng) const { return rng.Gamma(alpha_, beta_); }

double GammaBelief::Pdf(double x) const {
  if (x < 0.0) return 0.0;
  if (x == 0.0) {
    if (alpha_ < 1.0) return std::numeric_limits<double>::infinity();
    if (alpha_ == 1.0) return beta_;
    return 0.0;
  }
  return std::exp(LogPdf(x));
}

double GammaBelief::LogPdf(double x) const {
  if (x <= 0.0) return -std::numeric_limits<double>::infinity();
  return alpha_ * std::log(beta_) + (alpha_ - 1.0) * std::log(x) - beta_ * x -
         std::lgamma(alpha_);
}

double GammaBelief::Cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return RegularizedGammaP(alpha_, beta_ * x);
}

double GammaBelief::Quantile(double q) const {
  assert(q >= 0.0 && q < 1.0);
  return InverseRegularizedGammaP(alpha_, q) / beta_;
}

}  // namespace stats
}  // namespace exsample
