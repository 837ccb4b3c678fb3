// Unit tests for eigendecomposition, statistics, and distances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "io/binary.hpp"
#include "linalg/distance.hpp"
#include "linalg/eigen.hpp"
#include "linalg/stats.hpp"
#include "tensor/rng.hpp"

namespace cnd::linalg {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

/// n x n symmetric matrix of standard normal draws, filled with plain loops
/// (no kernels) so the golden hashes below depend on eigen.cpp alone.
Matrix seeded_symmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) a(i, j) = a(j, i) = rng.normal();
  return a;
}

/// Gram matrix B^T B / m of an m x n normal draw, by plain loops: the PSD,
/// covariance-shaped input PCA solves.
Matrix seeded_gram(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  Matrix b(m, n);
  for (std::size_t k = 0; k < m; ++k)
    for (std::size_t j = 0; j < n; ++j) b(k, j) = rng.normal();
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < m; ++k) s += b(k, i) * b(k, j);
      a(i, j) = a(j, i) = s / static_cast<double>(m);
    }
  return a;
}

std::uint64_t hash_doubles(const double* p, std::size_t count) {
  return io::fnv1a64(reinterpret_cast<const char*>(p), count * sizeof(double));
}

/// The solver's contract, in units of n*eps: max|AV - V diag(values)| <=
/// 16 n eps max(1, max|a_ij|), max|V^T V - I| <= 16 n eps, and the values
/// sorted descending.
void expect_eigen_contract(const Matrix& a, const std::string& what) {
  SCOPED_TRACE(what);
  const std::size_t n = a.rows();
  const EigenResult e = eigen_symmetric(a);
  ASSERT_EQ(e.values.size(), n);
  ASSERT_EQ(e.vectors.rows(), n);
  ASSERT_EQ(e.vectors.cols(), n);
  for (std::size_t j = 1; j < n; ++j) EXPECT_GE(e.values[j - 1], e.values[j]);

  double amax = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) amax = std::max(amax, std::abs(a(i, j)));
  const double unit = static_cast<double>(n) * kEps;

  const Matrix av = matmul(a, e.vectors);
  double residual = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      residual = std::max(residual, std::abs(av(i, j) - e.vectors(i, j) * e.values[j]));
  EXPECT_LE(residual, 16.0 * unit * std::max(1.0, amax));

  const Matrix vtv = matmul_at(e.vectors, e.vectors);
  double ortho = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ortho = std::max(ortho, std::abs(vtv(i, j) - (i == j ? 1.0 : 0.0)));
  EXPECT_LE(ortho, 16.0 * unit);
}

constexpr std::size_t kContractSizes[] = {4, 16, 64, 256};

TEST(EigenContract, RandomSymmetric) {
  for (std::size_t n : kContractSizes)
    expect_eigen_contract(seeded_symmetric(n, 100 + n), "n=" + std::to_string(n));
}

TEST(EigenContract, PositiveSemidefinite) {
  for (std::size_t n : kContractSizes) {
    const Matrix b = seeded_symmetric(n, 200 + n);
    expect_eigen_contract(matmul_at(b, b), "n=" + std::to_string(n));
  }
}

TEST(EigenContract, RankDeficient) {
  // B^T B of an (n/2 + 1) x n draw: rank n/2 + 1, the rest of the spectrum 0.
  for (std::size_t n : kContractSizes) {
    Rng rng(300 + n);
    Matrix b(n / 2 + 1, n);
    for (std::size_t i = 0; i < b.rows(); ++i)
      for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
    expect_eigen_contract(matmul_at(b, b), "n=" + std::to_string(n));
  }
}

TEST(EigenContract, Identity) {
  for (std::size_t n : kContractSizes)
    expect_eigen_contract(identity(n), "n=" + std::to_string(n));
}

TEST(EigenContract, AllOnes) {
  // Eigenvalue n once and 0 with multiplicity n - 1.
  for (std::size_t n : kContractSizes)
    expect_eigen_contract(Matrix(n, n, 1.0), "n=" + std::to_string(n));
}

TEST(EigenContract, RepeatedBlocksDoubleEveryEigenvalue) {
  for (std::size_t n : kContractSizes) {
    const std::size_t h = n / 2;
    const Matrix blk = seeded_symmetric(h, 400 + n);
    Matrix a(n, n);
    for (std::size_t i = 0; i < h; ++i)
      for (std::size_t j = 0; j < h; ++j) a(i, j) = a(h + i, h + j) = blk(i, j);
    expect_eigen_contract(a, "n=" + std::to_string(n));
    const EigenResult e = eigen_symmetric(a);
    const double vmax = std::max(std::abs(e.values.front()), std::abs(e.values.back()));
    for (std::size_t j = 0; j < n; j += 2)
      EXPECT_NEAR(e.values[j], e.values[j + 1], 16.0 * static_cast<double>(n) * kEps * vmax);
  }
}

// Byte goldens: FNV-1a-64 of the exact output bytes. A rewrite that keeps
// every rotation's arithmetic keeps these; a different algorithm (or a
// different floating-point contraction) renumbers them by declaration.
TEST(EigenGolden, SeededSymmetricN33) {
  const EigenResult e = eigen_symmetric(seeded_symmetric(33, 33));
  EXPECT_EQ(hash_doubles(e.values.data(), e.values.size()), 0xb452f2b8d78bd933ull);
  EXPECT_EQ(hash_doubles(e.vectors.data(), e.vectors.size()), 0x3d7de69d7976a9d3ull);
}

TEST(EigenGolden, SeededGramN256) {
  const EigenResult e = eigen_symmetric(seeded_gram(256, 512, 256));
  EXPECT_EQ(hash_doubles(e.values.data(), e.values.size()), 0x98887f22a2c30f3dull);
  EXPECT_EQ(hash_doubles(e.vectors.data(), e.vectors.size()), 0x7999693f09045b89ull);
}

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
