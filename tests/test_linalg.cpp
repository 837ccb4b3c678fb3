// Unit tests for eigendecomposition, statistics, and distances.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/distance.hpp"
#include "linalg/eigen.hpp"
#include "linalg/stats.hpp"
#include "tensor/rng.hpp"

namespace cnd::linalg {
namespace {

TEST(Eigen, DiagonalMatrix) {
  Matrix a{{3, 0}, {0, 1}};
  auto e = eigen_symmetric(a);
  EXPECT_NEAR(e.values[0], 3.0, 1e-12);
  EXPECT_NEAR(e.values[1], 1.0, 1e-12);
  // Eigenvector for 3 is +-e0.
  EXPECT_NEAR(std::abs(e.vectors(0, 0)), 1.0, 1e-10);
  EXPECT_NEAR(std::abs(e.vectors(1, 0)), 0.0, 1e-10);
}

TEST(Eigen, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix a{{2, 1}, {1, 2}};
  auto e = eigen_symmetric(a);
  EXPECT_NEAR(e.values[0], 3.0, 1e-10);
  EXPECT_NEAR(e.values[1], 1.0, 1e-10);
}

TEST(Eigen, ReconstructsMatrix) {
  Rng rng(5);
  const std::size_t n = 8;
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  Matrix a = matmul_at(b, b);  // symmetric PSD
  auto e = eigen_symmetric(a);

  // A = V diag(lambda) V^T.
  Matrix vl = e.vectors;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) vl(i, j) *= e.values[j];
  Matrix recon = matmul_bt(vl, e.vectors);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(recon(i, j), a(i, j), 1e-8);
}

TEST(Eigen, VectorsOrthonormal) {
  Rng rng(6);
  const std::size_t n = 6;
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  Matrix a = matmul_at(b, b);
  auto e = eigen_symmetric(a);
  Matrix vtv = matmul_at(e.vectors, e.vectors);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(vtv(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST(Eigen, RejectsNonSymmetric) {
  Matrix a{{1, 2}, {0, 1}};
  EXPECT_THROW(eigen_symmetric(a), std::invalid_argument);
}

TEST(Eigen, RejectsNonSquare) {
  EXPECT_THROW(eigen_symmetric(Matrix(2, 3)), std::invalid_argument);
}

TEST(Stats, CovarianceKnown) {
  // Perfectly anti-correlated columns.
  Matrix x{{1, -1}, {-1, 1}};
  Matrix c = covariance(x);
  EXPECT_NEAR(c(0, 0), 2.0, 1e-12);  // ddof=1
  EXPECT_NEAR(c(0, 1), -2.0, 1e-12);
  EXPECT_NEAR(c(1, 0), c(0, 1), 0.0);
}

TEST(Stats, CenterRemovesMean) {
  Matrix x{{1, 10}, {3, 20}};
  auto [c, mu] = center(x);
  EXPECT_DOUBLE_EQ(mu[0], 2.0);
  auto m2 = col_mean(c);
  EXPECT_NEAR(m2[0], 0.0, 1e-15);
  EXPECT_NEAR(m2[1], 0.0, 1e-15);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{2, 4, 6, 8};
  const std::vector<double> c{-1, -2, -3, -4};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
  const std::vector<double> flat{5, 5, 5, 5};
  EXPECT_EQ(pearson(a, flat), 0.0);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> v{0, 1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.0);
}

TEST(Distance, PairwiseKnown) {
  Matrix a{{0, 0}, {3, 4}};
  Matrix b{{0, 0}};
  Matrix d = pairwise_dist(a, b);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 5.0);
}

TEST(Distance, KnnFindsNearest) {
  Matrix ref{{0, 0}, {1, 0}, {10, 0}, {11, 0}};
  Matrix q{{0.4, 0}};
  auto nn = knn(q, ref, 2, /*exclude_self=*/false);
  EXPECT_EQ(nn.indices[0][0], 0u);
  EXPECT_EQ(nn.indices[0][1], 1u);
  EXPECT_NEAR(nn.distances[0][0], 0.4, 1e-12);
}

TEST(Distance, KnnExcludesSelf) {
  Matrix ref{{0, 0}, {1, 0}, {2, 0}};
  auto nn = knn(ref, ref, 1, /*exclude_self=*/true);
  EXPECT_EQ(nn.indices[0][0], 1u);  // nearest non-self
  EXPECT_EQ(nn.indices[1].size(), 1u);
  EXPECT_GT(nn.distances[0][0], 0.0);
}

TEST(Distance, KnnRejectsTooLargeK) {
  Matrix ref{{0, 0}, {1, 0}};
  EXPECT_THROW(knn(ref, ref, 2, true), std::invalid_argument);
}

}  // namespace
}  // namespace cnd::linalg
