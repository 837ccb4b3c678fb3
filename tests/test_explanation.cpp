// Unit tests for FRE feature attribution.
#include <gtest/gtest.h>

#include "core/explanation.hpp"
#include "tensor/rng.hpp"

namespace cnd {
namespace {

TEST(ExplainFre, AttributesThePerturbedFeature) {
  // Normal data lives on a plane in 5-D; perturb feature 4 of one test row
  // far off the plane: the top attribution must be feature 4 with most of
  // the score.
  Rng rng(1);
  Matrix basis(2, 5);
  for (std::size_t i = 0; i < 2; ++i)
    for (auto& v : basis.row(i)) v = rng.normal();
  Matrix z(200, 2);
  for (std::size_t i = 0; i < 200; ++i)
    for (auto& v : z.row(i)) v = rng.normal(0.0, 2.0);
  Matrix train = matmul(z, basis);

  ml::Pca pca({.explained_variance = 0.99});
  pca.fit(train);

  Matrix probe(1, 5);
  probe.set_row(0, train.row(0));
  probe(0, 4) += 10.0;

  const auto attr = core::explain_fre(pca, probe, 3);
  ASSERT_EQ(attr.size(), 1u);
  ASSERT_FALSE(attr[0].empty());
  EXPECT_EQ(attr[0][0].feature, 4u);
  EXPECT_GT(attr[0][0].fraction, 0.5);
}

TEST(ExplainFre, ContributionsSumToScore) {
  Rng rng(2);
  Matrix train(100, 4);
  for (std::size_t i = 0; i < 100; ++i)
    for (auto& v : train.row(i)) v = rng.normal();
  ml::Pca pca({.explained_variance = 0.7});
  pca.fit(train);

  Matrix test(10, 4);
  for (std::size_t i = 0; i < 10; ++i)
    for (auto& v : test.row(i)) v = rng.normal(0.0, 3.0);
  const auto scores = pca.score(test);
  const auto attr = core::explain_fre(pca, test, /*top_k=*/0);
  for (std::size_t i = 0; i < 10; ++i) {
    double sum = 0.0;
    for (const auto& a : attr[i]) sum += a.contribution;
    EXPECT_NEAR(sum, scores[i], 1e-9);
  }
}

TEST(ExplainFre, FormatUsesNamesAndPercents) {
  std::vector<core::FeatureAttribution> attr{
      {.feature = 1, .contribution = 8.0, .fraction = 0.8},
      {.feature = 0, .contribution = 2.0, .fraction = 0.2}};
  const std::string s = core::format_attribution(attr, {"bytes", "pkts"});
  EXPECT_NE(s.find("pkts (80%)"), std::string::npos);
  EXPECT_NE(s.find("bytes (20%)"), std::string::npos);
  const std::string s2 = core::format_attribution(attr);
  EXPECT_NE(s2.find("f1 (80%)"), std::string::npos);
}

}  // namespace
}  // namespace cnd
