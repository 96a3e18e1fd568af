#include "stats/special_functions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace exsample {
namespace stats {
namespace {

TEST(RegularizedGammaTest, BoundaryValues) {
  EXPECT_DOUBLE_EQ(RegularizedGammaP(1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedGammaQ(1.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(RegularizedGammaP(2.5, INFINITY), 1.0);
  EXPECT_DOUBLE_EQ(RegularizedGammaQ(2.5, INFINITY), 0.0);
}

TEST(RegularizedGammaTest, ShapeOneIsExponentialCdf) {
  // P(1, x) = 1 - e^{-x}.
  for (double x : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    EXPECT_NEAR(RegularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-12) << x;
  }
}

TEST(RegularizedGammaTest, ShapeHalfIsErf) {
  // P(1/2, x) = erf(sqrt(x)).
  for (double x : {0.01, 0.25, 1.0, 4.0}) {
    EXPECT_NEAR(RegularizedGammaP(0.5, x), std::erf(std::sqrt(x)), 1e-10) << x;
  }
}

TEST(RegularizedGammaTest, IntegerShapeMatchesPoissonTail) {
  // Q(k, x) = sum_{j<k} e^{-x} x^j / j! (Poisson CDF identity).
  const double x = 3.7;
  for (int k : {1, 2, 3, 5, 8}) {
    double poisson_cdf = 0.0;
    double term = std::exp(-x);
    for (int j = 0; j < k; ++j) {
      poisson_cdf += term;
      term *= x / (j + 1);
    }
    EXPECT_NEAR(RegularizedGammaQ(k, x), poisson_cdf, 1e-10) << k;
  }
}

TEST(RegularizedGammaTest, PAndQSumToOne) {
  for (double a : {0.1, 0.7, 1.0, 3.3, 25.0, 500.0}) {
    for (double x : {0.001, 0.5, 1.0, 5.0, 30.0, 600.0}) {
      EXPECT_NEAR(RegularizedGammaP(a, x) + RegularizedGammaQ(a, x), 1.0, 1e-10)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(RegularizedGammaTest, MonotoneInX) {
  double prev = -1.0;
  for (double x = 0.0; x < 20.0; x += 0.25) {
    const double p = RegularizedGammaP(3.0, x);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

struct InverseCase {
  double a;
  double p;
};

class InverseGammaPTest : public ::testing::TestWithParam<InverseCase> {};

TEST_P(InverseGammaPTest, RoundTrips) {
  const InverseCase param = GetParam();
  const double x = InverseRegularizedGammaP(param.a, param.p);
  EXPECT_GE(x, 0.0);
  EXPECT_NEAR(RegularizedGammaP(param.a, x), param.p, 1e-9)
      << "a=" << param.a << " p=" << param.p << " x=" << x;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, InverseGammaPTest,
    ::testing::Values(InverseCase{0.1, 0.01}, InverseCase{0.1, 0.5},
                      InverseCase{0.1, 0.99}, InverseCase{0.5, 0.25},
                      InverseCase{1.0, 0.5}, InverseCase{1.0, 0.999},
                      InverseCase{2.0, 0.1}, InverseCase{5.0, 0.75},
                      InverseCase{30.0, 0.5}, InverseCase{100.0, 0.9},
                      InverseCase{1000.0, 0.999}, InverseCase{0.05, 0.9}));

TEST(InverseGammaPTest, ZeroProbability) {
  EXPECT_DOUBLE_EQ(InverseRegularizedGammaP(2.0, 0.0), 0.0);
}

TEST(InverseGammaPTest, MedianOfShapeOne) {
  // Gamma(1, 1) is Exponential(1): median = ln 2.
  EXPECT_NEAR(InverseRegularizedGammaP(1.0, 0.5), std::log(2.0), 1e-9);
}

TEST(InverseGammaPTest, MonotoneInP) {
  double prev = 0.0;
  for (double p = 0.05; p < 1.0; p += 0.05) {
    const double x = InverseRegularizedGammaP(2.5, p);
    EXPECT_GT(x, prev);
    prev = x;
  }
}

TEST(InverseGammaQTest, RoundTripsToRelativeErrorDeepInTheTail) {
  // The P-inverse stops on an absolute |P - p| < 1e-12, useless for a tail of
  // 1e-6; the Q-inverse must hold Q's *relative* error all the way down.
  for (double a : {0.1, 1.1, 5.1, 50.1}) {
    std::vector<double> tails{0.5};
    for (int k = 1; k <= 300; ++k) tails.push_back(std::pow(10.0, -k));
    for (double q : tails) {
      const double x = InverseRegularizedGammaQ(a, q);
      ASSERT_TRUE(std::isfinite(x)) << "a=" << a << " q=" << q;
      EXPECT_LE(std::fabs(RegularizedGammaQ(a, x) / q - 1.0), 1e-9)
          << "a=" << a << " q=" << q << " x=" << x;
    }
  }
}

TEST(InverseGammaQTest, AgreesWithThePInverseInTheBody) {
  for (double a : {0.1, 1.1, 5.1, 50.1}) {
    for (double p : {0.01, 0.25, 0.5, 0.75, 0.99}) {
      EXPECT_NEAR(RegularizedGammaP(a, InverseRegularizedGammaQ(a, 1.0 - p)), p, 1e-9)
          << "a=" << a << " p=" << p;
    }
  }
}

TEST(InverseGammaQTest, BoundariesAndMonotone) {
  EXPECT_DOUBLE_EQ(InverseRegularizedGammaQ(2.0, 1.0), 0.0);
  EXPECT_TRUE(std::isinf(InverseRegularizedGammaQ(2.0, 0.0)));
  // Gamma(1, 1) is Exponential(1): Q(1, x) = e^-x.
  EXPECT_NEAR(InverseRegularizedGammaQ(1.0, 1e-6), -std::log(1e-6), 1e-8);
  double prev = 0.0;
  for (double q = 0.95; q > 1e-12; q *= 0.5) {
    const double x = InverseRegularizedGammaQ(0.1, q);
    EXPECT_GT(x, prev) << q;
    prev = x;
  }
}

TEST(InverseGammaQTest, GroupMaximumStaysFiniteForHugeGroups) {
  // The largest of m iid Gamma(a, 1) draws is Q^-1(a, 1 - U^(1/m)); the tail
  // goes through expm1 because U^(1/m) rounds toward 1 as m grows. At
  // m = 10^6 it must stay finite and above a single draw's median.
  const double m = 1e6;
  for (double a : {0.1, 1.1, 5.1, 50.1}) {
    const double median = InverseRegularizedGammaQ(a, 0.5);
    for (double u : {1e-300, 1e-12, 0.01, 0.5, 0.99, 1.0 - 1e-12}) {
      const double tail = -std::expm1(std::log(u) / m);
      const double x = InverseRegularizedGammaQ(a, tail);
      EXPECT_TRUE(std::isfinite(x)) << "a=" << a << " u=" << u;
      EXPECT_GT(x, median) << "a=" << a << " u=" << u;
    }
  }
}

}  // namespace
}  // namespace stats
}  // namespace exsample
