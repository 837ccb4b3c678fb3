// Unit tests for Best-F, quantile and POT thresholding.
#include "eval/threshold.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "eval/metrics.hpp"
#include "eval/robust_threshold.hpp"
#include "tensor/rng.hpp"

namespace cnd::eval {
namespace {

TEST(BestF, PerfectSeparationGivesF1One) {
  const std::vector<double> s{5.0, 4.0, 1.0, 0.5};
  const std::vector<int> y{1, 1, 0, 0};
  auto r = best_f_threshold(s, y);
  EXPECT_DOUBLE_EQ(r.f1, 1.0);
  // Threshold sits between the classes.
  EXPECT_GT(r.threshold, 1.0);
  EXPECT_LT(r.threshold, 4.0);
}

TEST(BestF, MatchesExhaustiveSearch) {
  const std::vector<double> s{0.1, 0.9, 0.3, 0.8, 0.5, 0.4, 0.7, 0.2};
  const std::vector<int> y{0, 1, 0, 0, 1, 1, 1, 0};
  auto r = best_f_threshold(s, y);

  // Brute-force over a fine grid.
  double best = 0.0;
  for (double t = -0.05; t <= 1.05; t += 0.001) {
    const double f1 = f1_score(apply_threshold(s, t), y);
    best = std::max(best, f1);
  }
  EXPECT_NEAR(r.f1, best, 1e-9);
  // The returned threshold reproduces the returned F1.
  EXPECT_NEAR(f1_score(apply_threshold(s, r.threshold), y), r.f1, 1e-12);
}

TEST(BestF, TiedScoresHandled) {
  const std::vector<double> s{1.0, 1.0, 1.0, 0.0};
  const std::vector<int> y{1, 1, 0, 0};
  auto r = best_f_threshold(s, y);
  // Cut below the tied block: P = 2/3, R = 1 -> F1 = 0.8.
  EXPECT_NEAR(r.f1, 0.8, 1e-12);
  EXPECT_NEAR(f1_score(apply_threshold(s, r.threshold), y), r.f1, 1e-12);
}

TEST(BestF, AllNegativeLabels) {
  const std::vector<double> s{0.3, 0.2};
  const std::vector<int> y{0, 0};
  auto r = best_f_threshold(s, y);
  // No positives: predicting nothing is optimal (F1 defined as 1 here since
  // there is nothing to find).
  EXPECT_DOUBLE_EQ(r.f1, 1.0);
  EXPECT_TRUE(apply_threshold(s, r.threshold) == (std::vector<int>{0, 0}));
}

TEST(BestF, RejectsEmpty) {
  EXPECT_THROW(best_f_threshold({}, {}), std::invalid_argument);
}

TEST(QuantileThreshold, InterpolatesAndBounds) {
  std::vector<double> cal{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(quantile_threshold(cal, 0.5), 5.0);
  EXPECT_NEAR(quantile_threshold(cal, 0.95), 9.5, 1e-12);
  EXPECT_THROW(quantile_threshold(cal, 0.0), std::invalid_argument);
  EXPECT_THROW(quantile_threshold({}, 0.5), std::invalid_argument);
}

TEST(ApplyThreshold, StrictInequality) {
  const std::vector<double> s{1.0, 2.0, 3.0};
  const auto p = apply_threshold(s, 2.0);
  EXPECT_EQ(p, (std::vector<int>{0, 0, 1}));
}

TEST(Verdicts, FiniteFlowsUseTheStrictThreshold) {
  const Matrix x(4, 2, 0.5);
  const std::vector<double> s{1.0, 2.0, 3.0, -1.0};
  std::vector<int> v;
  EXPECT_EQ(verdicts_into(x, s, 2.0, v), 0u);
  EXPECT_EQ(v, (std::vector<int>{0, 0, 1, 0}));
  // A threshold above every score passes all flows; one below alarms all.
  verdicts_into(x, s, 1e12, v);
  EXPECT_EQ(v, (std::vector<int>{0, 0, 0, 0}));
  verdicts_into(x, s, -2.0, v);
  EXPECT_EQ(v, (std::vector<int>{1, 1, 1, 1}));
}

TEST(Verdicts, NonFiniteFeatureOrScoreFailsClosed) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Every row scores well below the threshold; only rows 0 and 7 are clean.
  const Matrix x{{0, 0}, {nan, 0}, {0, inf}, {-inf, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}};
  const std::vector<double> s{0.1, 0.1, 0.1, 0.1, nan, inf, -inf, 0.1};
  std::vector<int> v;
  EXPECT_EQ(verdicts_into(x, s, 1.0, v), 6u);
  EXPECT_EQ(v, (std::vector<int>{0, 1, 1, 1, 1, 1, 1, 0}));
  EXPECT_TRUE(finite_flow(x.row(0), s[0]));
  EXPECT_FALSE(finite_flow(x.row(1), s[1]));
  EXPECT_FALSE(finite_flow(x.row(4), s[4]));
}

TEST(Verdicts, AdaptationBuffersAdmitOnlyFiniteRows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix buffer{{9, 9}};
  append_finite_rows(buffer, Matrix{{1, 2}, {nan, 3}, {4, 5}});
  EXPECT_EQ(buffer.rows(), 3u);
  EXPECT_EQ(buffer(1, 0), 1.0);
  EXPECT_EQ(buffer(2, 1), 5.0);
}

TEST(PotThreshold, CalibratesTailProbability) {
  // Exponential(1) scores: P(X > t) = exp(-t), so the 1e-3 threshold should
  // land near -ln(1e-3) ~ 6.9.
  Rng rng(1);
  std::vector<double> cal(20000);
  for (double& v : cal) v = rng.exponential(1.0);
  const double t = pot_threshold(cal, {.tail_quantile = 0.95, .target_prob = 1e-3});
  EXPECT_NEAR(t, 6.9, 1.0);
}

TEST(PotThreshold, AboveTailQuantile) {
  Rng rng(2);
  std::vector<double> cal(500);
  for (double& v : cal) v = rng.normal();
  const double t = pot_threshold(cal, {.tail_quantile = 0.9, .target_prob = 1e-3});
  std::size_t above = 0;
  for (double v : cal) above += (v > t);
  EXPECT_LT(static_cast<double>(above) / 500.0, 0.05);
}

TEST(PotThreshold, RejectsBadConfig) {
  std::vector<double> cal(30, 1.0);
  EXPECT_THROW(pot_threshold(cal, {.tail_quantile = 0.9, .target_prob = 0.5}),
               std::invalid_argument);
  EXPECT_THROW(pot_threshold(std::vector<double>(5, 1.0), {}), std::invalid_argument);
}

}  // namespace
}  // namespace cnd::eval
