// Unit tests for the extended novelty-detector set: GMM, Mahalanobis,
// kNN-distance, HBOS, and the autoencoder-reconstruction detector.
#include <gtest/gtest.h>

#include <cmath>

#include "ml/ae_detector.hpp"
#include "ml/gmm.hpp"
#include "ml/hbos.hpp"
#include "ml/knn_detector.hpp"
#include "ml/mahalanobis.hpp"
#include "tensor/rng.hpp"

namespace cnd::ml {
namespace {

struct Planted {
  Matrix train, inliers, outliers;
};

Planted make_planted(Rng& rng, std::size_t n_train = 400, std::size_t n_test = 40,
                     std::size_t d = 5, double out_dist = 7.0) {
  Planted p;
  p.train = Matrix(n_train, d);
  for (std::size_t i = 0; i < n_train; ++i)
    for (auto& v : p.train.row(i)) v = rng.normal();
  p.inliers = Matrix(n_test, d);
  for (std::size_t i = 0; i < n_test; ++i)
    for (auto& v : p.inliers.row(i)) v = rng.normal();
  p.outliers = Matrix(n_test, d);
  for (std::size_t i = 0; i < n_test; ++i)
    for (std::size_t j = 0; j < d; ++j)
      p.outliers(i, j) = rng.normal() + (j == 0 ? out_dist : 0.0);
  return p;
}

template <typename ScoreFn>
double separation_auc(ScoreFn&& score, const Planted& p) {
  const auto s_in = score(p.inliers);
  const auto s_out = score(p.outliers);
  std::size_t wins = 0;
  for (double o : s_out)
    for (double i : s_in) wins += (o > i);
  return static_cast<double>(wins) /
         static_cast<double>(s_in.size() * s_out.size());
}

// ---- GMM -------------------------------------------------------------------

TEST(Gmm, SeparatesPlantedOutliers) {
  Rng rng(1);
  Planted p = make_planted(rng);
  Gmm gmm({.n_components = 3});
  gmm.fit(p.train, rng);
  EXPECT_GT(separation_auc([&](const Matrix& x) { return gmm.score(x); }, p), 0.99);
}

TEST(Gmm, RecoversBimodalStructure) {
  // Two far-apart modes: a 2-component GMM should assign each ~half weight
  // and give both modes high likelihood.
  Rng rng(2);
  Matrix x(300, 2);
  for (std::size_t i = 0; i < 300; ++i) {
    const double c = i % 2 == 0 ? -8.0 : 8.0;
    x(i, 0) = rng.normal(c, 1.0);
    x(i, 1) = rng.normal(0.0, 1.0);
  }
  Gmm gmm({.n_components = 2});
  gmm.fit(x, rng);
  EXPECT_NEAR(gmm.weights()[0], 0.5, 0.1);
  // A point between the modes is less likely than points at either mode.
  Matrix probes{{-8, 0}, {0, 0}, {8, 0}};
  const auto ll = gmm.log_likelihood(probes);
  EXPECT_GT(ll[0], ll[1]);
  EXPECT_GT(ll[2], ll[1]);
}

TEST(Gmm, WeightsSumToOne) {
  Rng rng(3);
  Planted p = make_planted(rng);
  Gmm gmm({.n_components = 4});
  gmm.fit(p.train, rng);
  double s = 0.0;
  for (double w : gmm.weights()) s += w;
  EXPECT_NEAR(s, 1.0, 1e-9);
}

TEST(Gmm, RejectsMisuse) {
  Rng rng(4);
  Gmm gmm({.n_components = 10});
  EXPECT_THROW(gmm.fit(Matrix(5, 2), rng), std::invalid_argument);
  EXPECT_THROW(gmm.score(Matrix(1, 2)), std::invalid_argument);
}

// ---- Mahalanobis -----------------------------------------------------------

TEST(Mahalanobis, MatchesAnalyticDistanceOnIsotropicData) {
  // On ~N(0, I) training data the Mahalanobis distance approximates the
  // squared Euclidean norm.
  Rng rng(5);
  Matrix x(2000, 3);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (auto& v : x.row(i)) v = rng.normal();
  MahalanobisDetector det;
  det.fit(x);
  Matrix probe{{2, 0, 0}, {0, 0, 0}};
  const auto s = det.score(probe);
  EXPECT_NEAR(s[0], 4.0, 0.5);
  EXPECT_NEAR(s[1], 0.0, 0.1);
}

TEST(Mahalanobis, AccountsForCorrelation) {
  // Strongly correlated 2-D data: a point off the correlation line is far
  // in Mahalanobis terms even though it is Euclidean-close.
  Rng rng(6);
  Matrix x(2000, 2);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double t = rng.normal();
    x(i, 0) = t + 0.05 * rng.normal();
    x(i, 1) = t + 0.05 * rng.normal();
  }
  MahalanobisDetector det;
  det.fit(x);
  Matrix probes{{1.0, 1.0}, {1.0, -1.0}};  // on-line vs off-line
  const auto s = det.score(probes);
  EXPECT_GT(s[1], s[0] * 50.0);
}

TEST(Mahalanobis, SeparatesPlantedOutliers) {
  Rng rng(7);
  Planted p = make_planted(rng);
  MahalanobisDetector det;
  det.fit(p.train);
  EXPECT_GT(separation_auc([&](const Matrix& x) { return det.score(x); }, p), 0.99);
}

// ---- kNN distance ----------------------------------------------------------

TEST(KnnDetector, SeparatesPlantedOutliers) {
  Rng rng(8);
  Planted p = make_planted(rng);
  KnnDetector det({.k = 10});
  det.fit(p.train);
  EXPECT_GT(separation_auc([&](const Matrix& x) { return det.score(x); }, p), 0.99);
}

TEST(KnnDetector, RejectsTooSmallReference) {
  KnnDetector det({.k = 10});
  EXPECT_THROW(det.fit(Matrix(5, 2)), std::invalid_argument);
}

// ---- HBOS ------------------------------------------------------------------

TEST(Hbos, SeparatesPlantedOutliers) {
  Rng rng(12);
  Planted p = make_planted(rng);
  Hbos det;
  det.fit(p.train);
  EXPECT_GT(separation_auc([&](const Matrix& x) { return det.score(x); }, p), 0.95);
}

TEST(Hbos, OutOfRangeGetsMaxPenalty) {
  Rng rng(11);
  Matrix x(200, 1);
  for (std::size_t i = 0; i < 200; ++i) x(i, 0) = rng.uniform(0.0, 1.0);
  Hbos det;
  det.fit(x);
  Matrix probes{{0.5}, {100.0}};
  const auto s = det.score(probes);
  EXPECT_GT(s[1], s[0]);
}

TEST(Hbos, ScoresFiniteOnConstantFeature) {
  Matrix x(50, 2, 3.0);
  Hbos det;
  det.fit(x);
  for (double v : det.score(x)) EXPECT_TRUE(std::isfinite(v));
}

// ---- Autoencoder detector --------------------------------------------------

TEST(AeDetector, SeparatesPlantedOutliersOnLowRankData) {
  // AE reconstruction needs compressible normal data: rank-2 in 6 dims.
  Rng rng(12);
  Matrix basis(2, 6);
  for (std::size_t i = 0; i < 2; ++i)
    for (auto& v : basis.row(i)) v = rng.normal();
  auto sample = [&](std::size_t n, double off) {
    Matrix z(n, 2);
    for (std::size_t i = 0; i < n; ++i)
      for (auto& v : z.row(i)) v = rng.normal();
    Matrix x = matmul(z, basis);
    for (std::size_t i = 0; i < n; ++i) {
      auto r = x.row(i);
      for (std::size_t j = 0; j < 6; ++j) r[j] += rng.normal(0.0, 0.05) + (j == 5 ? off : 0.0);
    }
    return x;
  };
  Planted p;
  p.train = sample(400, 0.0);
  p.inliers = sample(40, 0.0);
  p.outliers = sample(40, 4.0);

  AeDetector det({.hidden_dim = 64, .latent_dim = 2, .epochs = 80, .lr = 3e-3});
  const double loss = det.fit(p.train);
  EXPECT_LT(loss, 0.5);
  EXPECT_GT(separation_auc([&](const Matrix& x) { return det.score(x); }, p), 0.95);
}

TEST(AeDetector, RejectsMisuse) {
  AeDetector det;
  EXPECT_THROW(det.score(Matrix(1, 3)), std::invalid_argument);
  EXPECT_THROW(det.fit(Matrix(2, 3)), std::invalid_argument);
}

}  // namespace
}  // namespace cnd::ml
