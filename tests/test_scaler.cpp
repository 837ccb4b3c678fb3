// Unit tests for the feature scalers.
#include "ml/scaler.hpp"

#include <gtest/gtest.h>

#include "tensor/rng.hpp"

namespace cnd::ml {
namespace {

TEST(StandardScaler, ZeroMeanUnitVariance) {
  Rng rng(1);
  Matrix x(200, 3);
  for (std::size_t i = 0; i < 200; ++i) {
    x(i, 0) = rng.normal(5.0, 2.0);
    x(i, 1) = rng.normal(-10.0, 0.5);
    x(i, 2) = rng.normal(0.0, 100.0);
  }
  StandardScaler s;
  Matrix z = s.fit_transform(x);
  auto mu = col_mean(z);
  auto sd = col_stddev(z, mu);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(mu[j], 0.0, 1e-10);
    EXPECT_NEAR(sd[j], 1.0, 1e-10);
  }
}

TEST(StandardScaler, ConstantColumnMapsToZero) {
  Matrix x(10, 2);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = 7.0;
    x(i, 1) = static_cast<double>(i);
  }
  StandardScaler s;
  Matrix z = s.fit_transform(x);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(z(i, 0), 0.0);
}

TEST(StandardScaler, TransformUsesTrainStatistics) {
  Matrix train{{0.0}, {2.0}};  // mean 1, std 1
  Matrix test{{3.0}};
  StandardScaler s;
  s.fit(train);
  Matrix z = s.transform(test);
  EXPECT_DOUBLE_EQ(z(0, 0), 2.0);
}

TEST(StandardScaler, RejectsMisuse) {
  StandardScaler s;
  EXPECT_THROW(s.transform(Matrix(1, 2)), std::invalid_argument);
  s.fit(Matrix(3, 2, 1.0));
  EXPECT_THROW(s.transform(Matrix(1, 3)), std::invalid_argument);
}

}  // namespace
}  // namespace cnd::ml
