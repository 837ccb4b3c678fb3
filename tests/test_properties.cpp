// Property-based sweeps (parameterized gtest) over library invariants.
#include <gtest/gtest.h>

#include <cmath>

#include "eval/cl_metrics.hpp"
#include "eval/metrics.hpp"
#include "eval/threshold.hpp"
#include "linalg/eigen.hpp"
#include "linalg/stats.hpp"
#include "ml/kmeans.hpp"
#include "ml/pca.hpp"
#include "ml/scaler.hpp"
#include "tensor/rng.hpp"

namespace cnd {
namespace {

// ---- PCA invariants over random seeds and explained-variance levels -------

struct PcaCase {
  std::uint64_t seed;
  double ev;
};

class PcaProperty : public ::testing::TestWithParam<PcaCase> {};

TEST_P(PcaProperty, FreScoresNonNegativeAndProjectionIdempotent) {
  const auto [seed, ev] = GetParam();
  Rng rng(seed);
  Matrix x(120, 9);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (auto& v : x.row(i)) v = rng.normal() + rng.heavy_tail(4.0) * 0.2;

  ml::Pca pca({.explained_variance = ev});
  pca.fit(x);
  EXPECT_GE(pca.n_components(), 1u);
  EXPECT_LE(pca.n_components(), 9u);

  const auto s = pca.score(x);
  for (double v : s) EXPECT_GE(v, -1e-12);

  // Projection idempotence: score of a reconstructed point is ~0.
  Matrix recon = pca.inverse_transform(pca.transform(x));
  const auto s2 = pca.score(recon);
  for (double v : s2) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST_P(PcaProperty, ReconstructionErrorShrinksWithMoreVariance) {
  const auto [seed, ev] = GetParam();
  Rng rng(seed ^ 0xABCD);
  Matrix x(100, 8);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (auto& v : x.row(i)) v = rng.normal();

  ml::Pca small({.explained_variance = std::max(0.3, ev - 0.25)});
  ml::Pca large({.explained_variance = ev});
  small.fit(x);
  large.fit(x);
  double mean_small = 0.0, mean_large = 0.0;
  for (double v : small.score(x)) mean_small += v;
  for (double v : large.score(x)) mean_large += v;
  EXPECT_LE(mean_large, mean_small + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PcaProperty,
                         ::testing::Values(PcaCase{1, 0.80}, PcaCase{2, 0.90},
                                           PcaCase{3, 0.95}, PcaCase{4, 0.99},
                                           PcaCase{5, 0.85}, PcaCase{6, 0.95},
                                           PcaCase{7, 0.75}, PcaCase{8, 0.99}));

// ---- Metric invariants over random score vectors ---------------------------

class MetricProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetricProperty, BoundsAndThresholdConsistency) {
  Rng rng(GetParam());
  const std::size_t n = 200;
  std::vector<double> scores(n);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = rng.bernoulli(0.3) ? 1 : 0;
    scores[i] = rng.normal(y[i] == 1 ? 1.0 : 0.0, 1.0);
  }

  const double ap = eval::pr_auc(scores, y);
  EXPECT_GE(ap, 0.0);
  EXPECT_LE(ap, 1.0);

  // Best-F F1 is attainable by its own threshold, and no grid threshold
  // beats it.
  const auto best = eval::best_f_threshold(scores, y);
  EXPECT_NEAR(eval::f1_score(eval::apply_threshold(scores, best.threshold), y),
              best.f1, 1e-12);
  for (double t = -3.0; t <= 4.0; t += 0.05)
    EXPECT_LE(eval::f1_score(eval::apply_threshold(scores, t), y), best.f1 + 1e-12);

  // Scores shifted/scaled monotonically leave rank metrics unchanged.
  std::vector<double> warped(n);
  for (std::size_t i = 0; i < n; ++i) warped[i] = 3.0 * scores[i] + 7.0;
  EXPECT_NEAR(eval::pr_auc(warped, y), ap, 1e-12);
  EXPECT_NEAR(eval::best_f_threshold(warped, y).f1, best.f1, 1e-12);
}

TEST_P(MetricProperty, F1SymmetryUnderPerfectPrediction) {
  Rng rng(GetParam() ^ 0xF00D);
  std::vector<int> y(50);
  for (auto& v : y) v = rng.bernoulli(0.5) ? 1 : 0;
  // Guarantee at least one positive so F1 is well-defined at 1.0.
  y[0] = 1;
  EXPECT_DOUBLE_EQ(eval::f1_score(y, y), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MetricProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u,
                                           99u, 111u));

// ---- Eigen invariants over random symmetric matrices -----------------------

class EigenProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EigenProperty, TraceAndPsdInvariants) {
  Rng rng(GetParam());
  const std::size_t n = 7;
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  Matrix a = matmul_at(b, b);  // PSD

  auto e = linalg::eigen_symmetric(a);
  // Trace = sum of eigenvalues.
  double trace = 0.0, esum = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += a(i, i);
  for (double v : e.values) esum += v;
  EXPECT_NEAR(trace, esum, 1e-8 * std::max(1.0, std::abs(trace)));
  // PSD: all eigenvalues >= 0 (within tolerance).
  for (double v : e.values) EXPECT_GE(v, -1e-9);
  // Descending order.
  for (std::size_t i = 1; i < n; ++i) EXPECT_GE(e.values[i - 1], e.values[i] - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EigenProperty,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u, 606u));

// ---- K-Means invariants -----------------------------------------------------

struct KmCase {
  std::uint64_t seed;
  std::size_t k;
};

class KMeansProperty : public ::testing::TestWithParam<KmCase> {};

TEST_P(KMeansProperty, InertiaMonotoneInK) {
  const auto [seed, k] = GetParam();
  Rng rng(seed);
  Matrix x(150, 4);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (auto& v : x.row(i)) v = rng.normal(static_cast<double>(i % 3) * 4.0, 1.0);

  ml::KMeans a({.k = k});
  ml::KMeans b({.k = k + 3});
  Rng ra(seed + 1), rb(seed + 1);
  a.fit(x, ra);
  b.fit(x, rb);
  // More clusters can only help (k-means++ makes this hold in practice on
  // this well-separated data; allow tiny slack for local optima).
  EXPECT_LE(b.inertia(x), a.inertia(x) * 1.05 + 1e-9);

  // Every predicted label < k; centroids finite.
  for (std::size_t c : a.predict(x)) EXPECT_LT(c, k);
  for (std::size_t i = 0; i < a.centroids().rows(); ++i)
    for (double v : a.centroids().row(i)) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Sweep, KMeansProperty,
                         ::testing::Values(KmCase{1, 2}, KmCase{2, 3}, KmCase{3, 4},
                                           KmCase{4, 5}, KmCase{5, 2}, KmCase{6, 6}));

// ---- Scaler round-trip invariants ------------------------------------------

class ScalerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScalerProperty, StandardizationIsAffineInvertible) {
  Rng rng(GetParam());
  Matrix x(60, 5);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (auto& v : x.row(i)) v = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3));

  ml::StandardScaler s;
  Matrix z = s.fit_transform(x);
  // Invert manually and compare.
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.cols(); ++j) {
      const double back = z(i, j) * s.stddev()[j] + s.mean()[j];
      EXPECT_NEAR(back, x(i, j), 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScalerProperty,
                         ::testing::Values(21u, 42u, 63u, 84u));

// ---- CL matrix identities ---------------------------------------------------

class ClIdentityProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ClIdentityProperty, ConstantMatrixIdentities) {
  const std::size_t m = GetParam();
  eval::ClResultMatrix r(m);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j) r.set(i, j, 0.42);
  EXPECT_NEAR(r.avg_current(), 0.42, 1e-12);
  EXPECT_NEAR(r.fwd_transfer(), 0.42, 1e-12);
  EXPECT_NEAR(r.bwd_transfer(), 0.0, 1e-12);
  EXPECT_NEAR(r.avg_all(), 0.42, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClIdentityProperty,
                         ::testing::Values(2u, 3u, 4u, 5u, 8u));

}  // namespace
}  // namespace cnd
