#include "stats/gamma_belief.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"

namespace exsample {
namespace stats {
namespace {

TEST(GammaBeliefTest, MakeRejectsBadParameters) {
  EXPECT_FALSE(GammaBelief::Make(0.0, 1.0).ok());
  EXPECT_FALSE(GammaBelief::Make(1.0, 0.0).ok());
  EXPECT_FALSE(GammaBelief::Make(-1.0, 1.0).ok());
  EXPECT_FALSE(GammaBelief::Make(std::numeric_limits<double>::infinity(), 1.0).ok());
  EXPECT_FALSE(GammaBelief::Make(1.0, std::numeric_limits<double>::quiet_NaN()).ok());
  EXPECT_TRUE(GammaBelief::Make(0.1, 1.0).ok());
}

TEST(GammaBeliefTest, MeanAndVariance) {
  const GammaBelief belief(3.0, 2.0);
  EXPECT_DOUBLE_EQ(belief.Mean(), 1.5);
  EXPECT_DOUBLE_EQ(belief.Variance(), 0.75);
}

TEST(GammaBeliefTest, PaperParameterization) {
  // Eq. III.4 with N1 = 5, n = 100, alpha0 = .1, beta0 = 1: the belief mean
  // tracks the point estimate N1/n and the variance tracks E/n (Eq. III.3).
  const GammaBelief belief(5.1, 101.0);
  EXPECT_NEAR(belief.Mean(), 5.0 / 100.0, 0.005);
  EXPECT_NEAR(belief.Variance(), belief.Mean() / 100.0, 0.001);
}

TEST(GammaBeliefTest, PdfIntegratesToOneOnGrid) {
  const GammaBelief belief(2.0, 3.0);
  double integral = 0.0;
  const double dx = 1e-3;
  for (double x = dx / 2; x < 20.0; x += dx) integral += belief.Pdf(x) * dx;
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(GammaBeliefTest, PdfEdgeCasesAtZero) {
  EXPECT_DOUBLE_EQ(GammaBelief(2.0, 1.0).Pdf(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(GammaBelief(2.0, 1.0).Pdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(GammaBelief(1.0, 3.0).Pdf(0.0), 3.0);  // Exponential at 0.
  EXPECT_TRUE(std::isinf(GammaBelief(0.5, 1.0).Pdf(0.0)));
}

TEST(GammaBeliefTest, CdfMatchesClosedFormForShapeOne) {
  const GammaBelief belief(1.0, 2.0);
  for (double x : {0.1, 0.5, 1.0, 3.0}) {
    EXPECT_NEAR(belief.Cdf(x), 1.0 - std::exp(-2.0 * x), 1e-12);
  }
}

TEST(GammaBeliefTest, QuantileCdfRoundTrip) {
  for (double alpha : {0.1, 1.0, 5.1}) {
    for (double beta : {0.5, 1.0, 101.0}) {
      const GammaBelief belief(alpha, beta);
      for (double q : {0.01, 0.25, 0.5, 0.9, 0.999}) {
        const double x = belief.Quantile(q);
        EXPECT_NEAR(belief.Cdf(x), q, 1e-8)
            << "alpha=" << alpha << " beta=" << beta << " q=" << q;
      }
    }
  }
}

TEST(GammaBeliefTest, SampleMomentsMatch) {
  common::Rng rng(99);
  const GammaBelief belief(0.1, 1.0);  // The paper's all-zero-stats prior.
  std::vector<double> draws(200000);
  for (double& d : draws) d = belief.Sample(rng);
  EXPECT_NEAR(common::Mean(draws), belief.Mean(), 0.003);
  EXPECT_NEAR(common::SampleVariance(draws), belief.Variance(), 0.01);
}

TEST(GammaBeliefTest, SamplesNonNegative) {
  common::Rng rng(100);
  const GammaBelief belief(0.1, 1.0);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(belief.Sample(rng), 0.0);
}

TEST(GammaBeliefTest, LowAlphaConcentratesNearZero) {
  // The paper's Fig. 2 bottom-right panel: with N1 = 0 the belief has a mode
  // at 0 but still produces non-zero Thompson samples.
  const GammaBelief belief(0.1, 180000.0);
  EXPECT_LT(belief.Quantile(0.5), 1e-5);
  common::Rng rng(101);
  int nonzero = 0;
  for (int i = 0; i < 1000; ++i) {
    if (belief.Sample(rng) > 0.0) ++nonzero;
  }
  EXPECT_EQ(nonzero, 1000);
}

}  // namespace
}  // namespace stats
}  // namespace exsample
