// Unit tests for PCA and its feature-reconstruction-error scoring.
#include "ml/pca.hpp"

#include <gtest/gtest.h>

#include "tensor/rng.hpp"

namespace cnd::ml {
namespace {

/// n points on a 2-D plane embedded in d dims, plus tiny noise.
Matrix planar_data(std::size_t n, std::size_t d, Rng& rng, double noise = 0.0) {
  Matrix basis(2, d);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < d; ++j) basis(i, j) = rng.normal();
  Matrix z(n, 2);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < 2; ++j) z(i, j) = rng.normal(0.0, 3.0);
  Matrix x = matmul(z, basis);
  if (noise > 0.0)
    for (std::size_t i = 0; i < n; ++i)
      for (auto& v : x.row(i)) v += rng.normal(0.0, noise);
  return x;
}

TEST(Pca, RecoversLowRankStructure) {
  Rng rng(1);
  Matrix x = planar_data(200, 8, rng);
  Pca pca({.explained_variance = 0.99});
  pca.fit(x);
  EXPECT_EQ(pca.n_components(), 2u);  // exactly rank 2
}

TEST(Pca, PerfectReconstructionOnSubspaceData) {
  Rng rng(2);
  Matrix x = planar_data(100, 6, rng);
  Pca pca({.explained_variance = 0.999});
  pca.fit(x);
  auto s = pca.score(x);
  for (double v : s) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Pca, OffSubspacePointsScoreHigher) {
  Rng rng(3);
  Matrix x = planar_data(150, 6, rng, 0.01);
  Pca pca({.explained_variance = 0.95});
  pca.fit(x);

  // Points far off the plane (isotropic noise) must score much higher.
  Matrix outliers(20, 6);
  for (std::size_t i = 0; i < 20; ++i)
    for (std::size_t j = 0; j < 6; ++j) outliers(i, j) = rng.normal(0.0, 5.0);

  const auto s_in = pca.score(x);
  const auto s_out = pca.score(outliers);
  double max_in = 0.0, min_out = 1e18;
  for (double v : s_in) max_in = std::max(max_in, v);
  double mean_out = 0.0;
  for (double v : s_out) {
    mean_out += v;
    min_out = std::min(min_out, v);
  }
  mean_out /= 20.0;
  EXPECT_GT(mean_out, max_in);
}

TEST(Pca, ScoresNonNegative) {
  Rng rng(4);
  Matrix x = planar_data(80, 5, rng, 0.5);
  Pca pca;
  pca.fit(x);
  for (double v : pca.score(x)) EXPECT_GE(v, 0.0);
}

TEST(Pca, TransformInverseRoundtripOnComponents) {
  Rng rng(5);
  Matrix x = planar_data(120, 7, rng, 0.3);
  Pca pca({.explained_variance = 0.8});
  pca.fit(x);
  Matrix l = pca.transform(x);
  EXPECT_EQ(l.cols(), pca.n_components());
  Matrix back = pca.inverse_transform(l);
  EXPECT_EQ(back.cols(), 7u);
  // transform(inverse_transform(l)) == l (projection is idempotent).
  Matrix l2 = pca.transform(back);
  for (std::size_t i = 0; i < l.rows(); ++i)
    for (std::size_t j = 0; j < l.cols(); ++j) EXPECT_NEAR(l2(i, j), l(i, j), 1e-9);
}

TEST(Pca, ExplainedVarianceThresholdControlsComponents) {
  Rng rng(6);
  Matrix x = planar_data(150, 10, rng, 1.0);  // noisy: full-rank-ish
  Pca loose({.explained_variance = 0.5});
  Pca strict({.explained_variance = 0.99});
  loose.fit(x);
  strict.fit(x);
  EXPECT_LE(loose.n_components(), strict.n_components());
}

TEST(Pca, RejectsBadInputs) {
  Pca pca;
  EXPECT_THROW(pca.fit(Matrix(1, 3)), std::invalid_argument);
  EXPECT_THROW(pca.score(Matrix(2, 3)), std::invalid_argument);  // unfitted
  Pca bad({.explained_variance = 0.0});
  EXPECT_THROW(bad.fit(Matrix(10, 3)), std::invalid_argument);
}

TEST(Pca, ConstantDataHandled) {
  Matrix x(10, 4, 2.5);
  Pca pca;
  pca.fit(x);
  auto s = pca.score(x);
  for (double v : s) EXPECT_NEAR(v, 0.0, 1e-18);
}

}  // namespace
}  // namespace cnd::ml
