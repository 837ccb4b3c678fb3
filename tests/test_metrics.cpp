// Unit tests for classification metrics, PR-AUC, and the CL matrix.
#include "eval/metrics.hpp"

#include <gtest/gtest.h>

#include "eval/cl_metrics.hpp"

namespace cnd::eval {
namespace {

TEST(Confusion, Counts) {
  const std::vector<int> pred{1, 1, 0, 0, 1};
  const std::vector<int> truth{1, 0, 0, 1, 1};
  Confusion c = confusion(pred, truth);
  EXPECT_EQ(c.tp, 2u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.tn, 1u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_THROW(confusion({1}, {1, 0}), std::invalid_argument);
  EXPECT_THROW(confusion({2}, {1}), std::invalid_argument);
}

TEST(F1, KnownValues) {
  // P = 2/3, R = 2/3 -> F1 = 2/3.
  Confusion c{.tp = 2, .fp = 1, .tn = 1, .fn = 1};
  EXPECT_NEAR(f1_score(c), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(precision(c), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(recall(c), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(accuracy(c), 0.6, 1e-12);
}

TEST(F1, DegenerateCases) {
  EXPECT_EQ(f1_score(Confusion{.tp = 0, .fp = 0, .tn = 5, .fn = 0}), 0.0);
  EXPECT_EQ(f1_score(Confusion{.tp = 0, .fp = 3, .tn = 0, .fn = 3}), 0.0);
  EXPECT_EQ(f1_score(Confusion{.tp = 4, .fp = 0, .tn = 4, .fn = 0}), 1.0);
}

TEST(PrAuc, PerfectRanking) {
  const std::vector<double> scores{0.9, 0.8, 0.2, 0.1};
  const std::vector<int> y{1, 1, 0, 0};
  EXPECT_NEAR(pr_auc(scores, y), 1.0, 1e-12);
}

TEST(PrAuc, WorstRanking) {
  const std::vector<double> scores{0.1, 0.2, 0.8, 0.9};
  const std::vector<int> y{1, 1, 0, 0};
  // Positives ranked last: precision at their recall points is 1/3 and 2/4.
  EXPECT_NEAR(pr_auc(scores, y), 0.5 * (1.0 / 3.0) + 0.5 * (2.0 / 4.0), 1e-12);
}

TEST(PrAuc, AllEqualScoresGivesPrevalence) {
  const std::vector<double> scores{0.5, 0.5, 0.5, 0.5};
  const std::vector<int> y{1, 0, 0, 0};
  EXPECT_NEAR(pr_auc(scores, y), 0.25, 1e-12);
}

TEST(PrAuc, NoPositivesIsZero) {
  EXPECT_EQ(pr_auc({0.1, 0.2}, {0, 0}), 0.0);
}

TEST(ClMatrix, MetricsFormulas) {
  // m = 3 with a hand-computed matrix.
  ClResultMatrix r(3);
  // R = [ .9 .5 .4
  //       .8 .9 .5
  //       .7 .8 .9 ]
  const double vals[3][3] = {{.9, .5, .4}, {.8, .9, .5}, {.7, .8, .9}};
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) r.set(i, j, vals[i][j]);

  EXPECT_NEAR(r.avg_current(), (0.9 + 0.9 + 0.9) / 3.0, 1e-12);
  EXPECT_NEAR(r.fwd_transfer(), (0.5 + 0.4 + 0.5) / 3.0, 1e-12);
  // BwdTrans = sum_i (R[2,i] - R[i,i]) / (m(m-1)/2) = ((.7-.9)+(.8-.9)+0)/3.
  EXPECT_NEAR(r.bwd_transfer(), (-0.2 - 0.1 + 0.0) / 3.0, 1e-9);
  EXPECT_NEAR(r.avg_all(), (0.9 + 0.5 + 0.4 + 0.8 + 0.9 + 0.5 + 0.7 + 0.8 + 0.9) / 9.0,
              1e-12);
}

TEST(ClMatrix, GemMetricsHandComputed) {
  // GEM/Avalanche-convention BWT, FWT, and forgetting on a hand-computed
  // m = 3 matrix (formulas in docs/SCENARIOS.md).
  ClResultMatrix r(3);
  const double vals[3][3] = {{0.8, 0.2, 0.1}, {0.7, 0.9, 0.3}, {0.6, 0.5, 0.95}};
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) r.set(i, j, vals[i][j]);

  // BWT = ((R(2,0)-R(0,0)) + (R(2,1)-R(1,1))) / 2 = ((.6-.8)+(.5-.9))/2.
  EXPECT_NEAR(r.bwt(), -0.3, 1e-12);
  // FWT (zero baseline) = (R(0,1) + R(1,2)) / 2 = (.2+.3)/2.
  EXPECT_NEAR(r.fwt(), 0.25, 1e-12);
  // FWT with an untrained-reference baseline b = {.1, .1}.
  EXPECT_NEAR(r.fwt({0.1, 0.1}), 0.15, 1e-12);
  // forgetting(0) = max(R(0,0), R(1,0)) - R(2,0) = .8 - .6.
  EXPECT_NEAR(r.forgetting(0), 0.2, 1e-12);
  // forgetting(1) = R(1,1) - R(2,1) = .9 - .5; forgetting(last) = 0.
  EXPECT_NEAR(r.forgetting(1), 0.4, 1e-12);
  EXPECT_EQ(r.forgetting(2), 0.0);
  EXPECT_NEAR(r.avg_forgetting(), 0.3, 1e-12);

  EXPECT_THROW(r.fwt({0.1}), std::invalid_argument);
  EXPECT_THROW(r.forgetting(3), std::invalid_argument);
}

TEST(ClMatrix, GemMetricsFrozenAndImprovingModels) {
  // A model that never changes has zero BWT and zero forgetting.
  ClResultMatrix frozen(3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      frozen.set(i, j, 0.4 + 0.1 * static_cast<double>(j));
  EXPECT_NEAR(frozen.bwt(), 0.0, 1e-12);
  EXPECT_NEAR(frozen.avg_forgetting(), 0.0, 1e-12);

  // A model that keeps improving on old experiences: positive BWT,
  // negative forgetting.
  ClResultMatrix improving(2);
  improving.set(0, 0, 0.5);
  improving.set(0, 1, 0.2);
  improving.set(1, 0, 0.7);
  improving.set(1, 1, 0.6);
  EXPECT_NEAR(improving.bwt(), 0.2, 1e-12);
  EXPECT_NEAR(improving.forgetting(0), -0.2, 1e-12);
  EXPECT_NEAR(improving.fwt(), 0.2, 1e-12);
}

TEST(ClMatrix, FrozenModelHasZeroBwd) {
  // A model that never changes: every row identical -> BwdTrans = 0.
  ClResultMatrix r(4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) r.set(i, j, 0.3 + 0.1 * static_cast<double>(j));
  EXPECT_NEAR(r.bwd_transfer(), 0.0, 1e-12);
}

TEST(ClMatrix, RejectsBadIndices) {
  ClResultMatrix r(2);
  EXPECT_THROW(r.set(2, 0, 0.5), std::invalid_argument);
  EXPECT_THROW(r.get(0, 2), std::invalid_argument);
  EXPECT_THROW(ClResultMatrix(1), std::invalid_argument);
}

TEST(ClMatrix, ToStringContainsSummary) {
  ClResultMatrix r(2);
  r.set(0, 0, 0.5);
  const std::string s = r.to_string("demo");
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("AVG="), std::string::npos);
  EXPECT_NE(s.find("FwdTrans="), std::string::npos);
}

}  // namespace
}  // namespace cnd::eval
