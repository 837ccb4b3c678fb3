// Integration tests for the full CND-IDS detector (Algorithm 1).
#include "core/cnd_ids.hpp"

#include <gtest/gtest.h>

#include "eval/metrics.hpp"
#include "eval/threshold.hpp"

namespace cnd::core {
namespace {

CndIdsConfig fast_cfg(std::uint64_t seed = 1) {
  CndIdsConfig c;
  c.cfe.hidden_dim = 32;
  c.cfe.latent_dim = 8;
  c.cfe.epochs = 6;
  c.cfe.kmeans_k = 3;
  c.seed = seed;
  return c;
}

struct Toy {
  Matrix n_clean;
  Matrix x_train;
  Matrix x_test;
  std::vector<int> y_test;
};

Toy make_toy(Rng& rng, double attack_dist = 9.0) {
  Toy t;
  t.n_clean = Matrix(80, 5);
  for (std::size_t i = 0; i < 80; ++i)
    for (std::size_t j = 0; j < 5; ++j) t.n_clean(i, j) = rng.normal();
  t.x_train = Matrix(240, 5);
  for (std::size_t i = 0; i < 240; ++i) {
    const bool attack = i % 3 == 0;
    for (std::size_t j = 0; j < 5; ++j)
      t.x_train(i, j) = rng.normal(attack && j < 2 ? attack_dist : 0.0, 1.0);
  }
  t.x_test = Matrix(100, 5);
  for (std::size_t i = 0; i < 100; ++i) {
    const bool attack = i < 30;
    t.y_test.push_back(attack ? 1 : 0);
    for (std::size_t j = 0; j < 5; ++j)
      t.x_test(i, j) = rng.normal(attack && j < 2 ? attack_dist : 0.0, 1.0);
  }
  return t;
}

TEST(CndIds, NameReflectsAblationFlags) {
  CndIdsConfig c = fast_cfg();
  EXPECT_EQ(CndIds(c).name(), "CND-IDS");
  c.cfe.use_cs = false;
  EXPECT_EQ(CndIds(c).name(), "CND-IDS (w/o L_CS)");
  c.cfe.use_cs = true;
  c.cfe.lambda_r = 0.0;
  EXPECT_EQ(CndIds(c).name(), "CND-IDS (w/o L_R)");
  c.cfe.lambda_cl = 0.0;
  EXPECT_EQ(CndIds(c).name(), "CND-IDS (w/o L_R and L_CL)");
  c.cfe.lambda_r = 0.1;
  EXPECT_EQ(CndIds(c).name(), "CND-IDS (w/o L_CL)");
}

TEST(CndIds, LifecycleGuards) {
  CndIds det(fast_cfg());
  EXPECT_THROW(det.observe_experience(Matrix(10, 5)), std::invalid_argument);
  EXPECT_THROW(det.score(Matrix(1, 5)), std::invalid_argument);

  Rng rng(1);
  Toy t = make_toy(rng);
  Matrix seed_x;
  std::vector<int> seed_y;
  det.setup(SetupContext{t.n_clean, seed_x, seed_y});
  EXPECT_THROW(det.score(Matrix(1, 5)), std::invalid_argument);  // no experience yet
}

TEST(CndIds, DetectsPlantedAttacks) {
  Rng rng(2);
  Toy t = make_toy(rng);
  CndIds det(fast_cfg(7));
  Matrix seed_x;
  std::vector<int> seed_y;
  det.setup(SetupContext{t.n_clean, seed_x, seed_y});
  det.observe_experience(t.x_train);

  const auto s = det.score(t.x_test);
  ASSERT_EQ(s.size(), t.y_test.size());
  const double auc = eval::pr_auc(s, t.y_test);
  EXPECT_GT(auc, 0.9);

  const auto best = eval::best_f_threshold(s, t.y_test);
  EXPECT_GT(best.f1, 0.85);
}

TEST(CndIds, ScoresAreNonNegative) {
  Rng rng(3);
  Toy t = make_toy(rng);
  CndIds det(fast_cfg());
  Matrix seed_x;
  std::vector<int> seed_y;
  det.setup(SetupContext{t.n_clean, seed_x, seed_y});
  det.observe_experience(t.x_train);
  for (double v : det.score(t.x_test)) EXPECT_GE(v, 0.0);
}

TEST(CndIds, PcaRefitEachExperience) {
  Rng rng(4);
  Toy t1 = make_toy(rng);
  CndIds det(fast_cfg());
  Matrix seed_x;
  std::vector<int> seed_y;
  det.setup(SetupContext{t1.n_clean, seed_x, seed_y});
  det.observe_experience(t1.x_train);
  const std::size_t k1 = det.pca().n_components();
  Toy t2 = make_toy(rng, -9.0);
  det.observe_experience(t2.x_train);
  EXPECT_TRUE(det.pca().fitted());
  EXPECT_GE(det.pca().n_components(), 1u);
  EXPECT_EQ(det.cfe().n_experiences_seen(), 2u);
  (void)k1;
}

TEST(CndIds, DeterministicGivenSeed) {
  auto run = [&]() {
    Rng rng(5);
    Toy t = make_toy(rng);
    CndIds det(fast_cfg(123));
    Matrix seed_x;
    std::vector<int> seed_y;
    det.setup(SetupContext{t.n_clean, seed_x, seed_y});
    det.observe_experience(t.x_train);
    return det.score(t.x_test);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(CndIds, ZeroDayFamilyStillScoresHigh) {
  // Train with attacks along +x; a zero-day along -y must still be flagged
  // (PCA on normal data generalizes to any off-manifold direction).
  Rng rng(6);
  Toy t = make_toy(rng, 9.0);
  CndIds det(fast_cfg(11));
  Matrix seed_x;
  std::vector<int> seed_y;
  det.setup(SetupContext{t.n_clean, seed_x, seed_y});
  det.observe_experience(t.x_train);

  Matrix zero_day(30, 5);
  for (std::size_t i = 0; i < 30; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      zero_day(i, j) = rng.normal(j >= 3 ? -8.0 : 0.0, 1.0);
  Matrix normals(30, 5);
  for (std::size_t i = 0; i < 30; ++i)
    for (std::size_t j = 0; j < 5; ++j) normals(i, j) = rng.normal();

  const auto s_zd = det.score(zero_day);
  const auto s_n = det.score(normals);
  std::size_t wins = 0;
  for (double a : s_zd)
    for (double n : s_n) wins += (a > n);
  EXPECT_GT(static_cast<double>(wins) / (30.0 * 30.0), 0.9);
}

}  // namespace
}  // namespace cnd::core
