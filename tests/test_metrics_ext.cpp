// Unit tests for extended metrics and robust label-free thresholds.
#include <gtest/gtest.h>

#include <cmath>

#include "eval/metrics_ext.hpp"
#include "eval/robust_threshold.hpp"
#include "tensor/rng.hpp"

namespace cnd::eval {
namespace {

TEST(Mcc, KnownValues) {
  // Perfect prediction -> 1; inverted -> -1; all-one-class -> 0.
  EXPECT_DOUBLE_EQ(mcc({.tp = 5, .fp = 0, .tn = 5, .fn = 0}), 1.0);
  EXPECT_DOUBLE_EQ(mcc({.tp = 0, .fp = 5, .tn = 0, .fn = 5}), -1.0);
  EXPECT_DOUBLE_EQ(mcc({.tp = 5, .fp = 5, .tn = 0, .fn = 0}), 0.0);
}

TEST(BalancedAccuracy, HandlesImbalance) {
  // 90 TN + 0 FP, 5 TP + 5 FN: accuracy would be 0.95, balanced = 0.75.
  Confusion c{.tp = 5, .fp = 0, .tn = 90, .fn = 5};
  EXPECT_NEAR(balanced_accuracy(c), 0.75, 1e-12);
  EXPECT_NEAR(accuracy(c), 0.95, 1e-12);
}

TEST(FBeta, ReducesToF1AtBetaOne) {
  Confusion c{.tp = 6, .fp = 3, .tn = 10, .fn = 2};
  EXPECT_NEAR(f_beta(c, 1.0), f1_score(c), 1e-12);
  // beta = 2 weights recall: with recall > precision here, F2 > F1.
  EXPECT_GT(f_beta(c, 2.0), f1_score(c));
  EXPECT_THROW(f_beta(c, 0.0), std::invalid_argument);
}

TEST(FprAtTpr, PerfectSeparatorHasZeroFpr) {
  const std::vector<double> s{0.9, 0.8, 0.2, 0.1};
  const std::vector<int> y{1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(fpr_at_tpr(s, y, 1.0), 0.0);
}

TEST(FprAtTpr, InterleavedCosts) {
  // Scores: pos .9, neg .8, pos .7, neg .6 — to catch both positives you
  // must accept one negative (FPR 0.5).
  const std::vector<double> s{0.9, 0.8, 0.7, 0.6};
  const std::vector<int> y{1, 0, 1, 0};
  EXPECT_DOUBLE_EQ(fpr_at_tpr(s, y, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(fpr_at_tpr(s, y, 0.5), 0.0);
}

TEST(DetectionDelay, FindsFirstAlarm) {
  const std::vector<double> s{0.1, 0.1, 0.2, 0.9, 0.8};
  EXPECT_EQ(detection_delay(s, 0.5, 2), 1u);  // first alarm at index 3
  EXPECT_EQ(detection_delay(s, 0.5, 4), 0u);
  EXPECT_EQ(detection_delay(s, 2.0, 0), s.size());  // never flagged
  EXPECT_THROW(detection_delay(s, 0.5, 9), std::invalid_argument);
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

TEST(BootstrapF1, IntervalContainsPointAndIsDeterministic) {
  Rng rng(9);
  std::vector<int> pred(300), truth(300);
  for (std::size_t i = 0; i < 300; ++i) {
    truth[i] = rng.bernoulli(0.3) ? 1 : 0;
    pred[i] = rng.bernoulli(0.85) ? truth[i] : 1 - truth[i];
  }
  const auto ci = bootstrap_f1_ci(pred, truth, 500, 0.05, 7);
  EXPECT_LE(ci.lo, ci.point);
  EXPECT_GE(ci.hi, ci.point);
  EXPECT_GT(ci.hi - ci.lo, 0.0);
  EXPECT_LT(ci.hi - ci.lo, 0.3);  // 300 samples: interval should be tight-ish

  const auto ci2 = bootstrap_f1_ci(pred, truth, 500, 0.05, 7);
  EXPECT_DOUBLE_EQ(ci.lo, ci2.lo);
  EXPECT_DOUBLE_EQ(ci.hi, ci2.hi);
}

TEST(BootstrapF1, PerfectPredictorDegenerateInterval) {
  std::vector<int> y{1, 0, 1, 0, 1, 1, 0, 0};
  const auto ci = bootstrap_f1_ci(y, y, 200);
  EXPECT_DOUBLE_EQ(ci.point, 1.0);
  EXPECT_DOUBLE_EQ(ci.lo, 1.0);
  EXPECT_DOUBLE_EQ(ci.hi, 1.0);
}

TEST(BootstrapF1, RejectsBadArgs) {
  EXPECT_THROW(bootstrap_f1_ci({}, {}), std::invalid_argument);
  EXPECT_THROW(bootstrap_f1_ci({1}, {1}, 5), std::invalid_argument);
  EXPECT_THROW(bootstrap_f1_ci({1}, {1}, 100, 1.5), std::invalid_argument);
}

TEST(PotThreshold, RejectsBadConfig) {
  std::vector<double> cal(30, 1.0);
  EXPECT_THROW(pot_threshold(cal, {.tail_quantile = 0.9, .target_prob = 0.5}),
               std::invalid_argument);
  EXPECT_THROW(pot_threshold(std::vector<double>(5, 1.0), {}), std::invalid_argument);
}

}  // namespace
}  // namespace cnd::eval
