// Unit tests for the Continual Feature Extractor.
#include "core/cfe.hpp"

#include <gtest/gtest.h>

namespace cnd::core {
namespace {

struct StreamData {
  Matrix x_train;
  Matrix n_clean;
};

/// Normal blob + attack blob, small sizes for fast CFE training.
StreamData make_stream(Rng& rng, double attack_dist = 8.0, std::size_t n = 200) {
  StreamData s;
  s.x_train = Matrix(n, 6);
  for (std::size_t i = 0; i < n; ++i) {
    const bool attack = i % 4 == 0;  // 25% contamination
    for (std::size_t j = 0; j < 6; ++j)
      s.x_train(i, j) = rng.normal(attack && j < 2 ? attack_dist : 0.0, 1.0);
  }
  s.n_clean = Matrix(60, 6);
  for (std::size_t i = 0; i < 60; ++i)
    for (std::size_t j = 0; j < 6; ++j) s.n_clean(i, j) = rng.normal(0.0, 1.0);
  return s;
}

CfeConfig fast_cfg() {
  CfeConfig c;
  c.hidden_dim = 32;
  c.latent_dim = 8;
  c.epochs = 5;
  c.batch_size = 64;
  c.kmeans_k = 2;
  return c;
}

TEST(Cfe, EncodeBeforeFitThrows) {
  Cfe cfe(fast_cfg());
  EXPECT_THROW(cfe.encode(Matrix(1, 6)), std::invalid_argument);
}

TEST(Cfe, FitProducesLatentOfConfiguredWidth) {
  Rng rng(1);
  StreamData s = make_stream(rng);
  Cfe cfe(fast_cfg());
  CfeFitStats st = cfe.fit_experience(s.x_train, s.n_clean);
  EXPECT_EQ(cfe.n_experiences_seen(), 1u);
  EXPECT_EQ(st.pseudo_k, 2u);
  EXPECT_GT(st.pseudo_anomalous, 0u);
  Matrix h = cfe.encode(s.x_train);
  EXPECT_EQ(h.cols(), 8u);
  EXPECT_EQ(h.rows(), s.x_train.rows());
}

TEST(Cfe, SeparatesPseudoClassesInLatentSpace) {
  Rng rng(2);
  StreamData s = make_stream(rng);
  Cfe cfe(fast_cfg());
  cfe.fit_experience(s.x_train, s.n_clean);

  // Mean latent distance between normal and attack rows should exceed the
  // within-normal spread (the triplet loss pushed them apart).
  Matrix h = cfe.encode(s.x_train);
  std::vector<double> mean_n(h.cols(), 0.0), mean_a(h.cols(), 0.0);
  std::size_t cn = 0, ca = 0;
  for (std::size_t i = 0; i < h.rows(); ++i) {
    const bool attack = i % 4 == 0;
    auto r = h.row(i);
    for (std::size_t j = 0; j < h.cols(); ++j)
      (attack ? mean_a[j] : mean_n[j]) += r[j];
    (attack ? ca : cn)++;
  }
  for (auto& v : mean_n) v /= static_cast<double>(cn);
  for (auto& v : mean_a) v /= static_cast<double>(ca);
  EXPECT_GT(sq_dist(mean_n, mean_a), 0.5);
}

TEST(Cfe, SnapshotsAccumulatePerExperience) {
  Rng rng(3);
  Cfe cfe(fast_cfg());
  for (int e = 0; e < 3; ++e) {
    StreamData s = make_stream(rng);
    cfe.fit_experience(s.x_train, s.n_clean);
  }
  EXPECT_EQ(cfe.n_experiences_seen(), 3u);
}

TEST(Cfe, SnapshotCapBoundsMemory) {
  Rng rng(4);
  CfeConfig cfg = fast_cfg();
  cfg.max_snapshots = 2;
  Cfe cfe(cfg);
  for (int e = 0; e < 4; ++e) {
    StreamData s = make_stream(rng);
    cfe.fit_experience(s.x_train, s.n_clean);
  }
  EXPECT_EQ(cfe.n_experiences_seen(), 4u);
  EXPECT_EQ(cfe.n_snapshots(), 2u);
}

TEST(Cfe, EwcModeAnchorsParameters) {
  Rng rng(11);
  CfeConfig cfg = fast_cfg();
  cfg.cl_mode = ClMode::kEwc;
  Cfe anchored(cfg, 7);

  CfeConfig free_cfg = fast_cfg();
  free_cfg.lambda_cl = 0.0;
  Cfe free(free_cfg, 7);

  StreamData a = make_stream(rng, 8.0);
  anchored.fit_experience(a.x_train, a.n_clean);
  free.fit_experience(a.x_train, a.n_clean);
  Matrix ha0 = anchored.encode(a.x_train);
  Matrix hf0 = free.encode(a.x_train);

  // A strongly shifted second experience: the EWC-anchored encoder must
  // move its old-experience embeddings less than the unregularized one.
  StreamData b = make_stream(rng, -8.0);
  for (std::size_t i = 0; i < b.x_train.rows(); ++i)
    for (auto& v : b.x_train.row(i)) v += 3.0;
  anchored.fit_experience(b.x_train, b.n_clean);
  free.fit_experience(b.x_train, b.n_clean);

  const double drift_anchored = mse(ha0, anchored.encode(a.x_train));
  const double drift_free = mse(hf0, free.encode(a.x_train));
  EXPECT_LT(drift_anchored, drift_free);
  EXPECT_EQ(anchored.n_snapshots(), 0u);
  EXPECT_EQ(anchored.replay_rows_stored(), 0u);
}

TEST(Cfe, ReplayModeStoresDataNotSnapshots) {
  Rng rng(5);
  CfeConfig cfg = fast_cfg();
  cfg.cl_mode = ClMode::kReplay;
  cfg.replay_capacity = 64;
  Cfe cfe(cfg);
  for (int e = 0; e < 3; ++e) {
    StreamData s = make_stream(rng);
    cfe.fit_experience(s.x_train, s.n_clean);
  }
  EXPECT_EQ(cfe.n_experiences_seen(), 3u);
  EXPECT_EQ(cfe.n_snapshots(), 0u);
  EXPECT_EQ(cfe.replay_rows_stored(), 64u);  // reservoir at capacity
  Matrix h = cfe.encode(make_stream(rng).x_train);
  EXPECT_EQ(h.cols(), cfe.latent_dim());
}

TEST(Cfe, ContinualLossLimitsLatentDrift) {
  // Train on experience A, remember encodings; then train on a shifted
  // experience B with and without L_CL. With L_CL the old encodings must
  // move less.
  auto run = [&](double lambda_cl) {
    Rng rng(5);
    StreamData a = make_stream(rng, 8.0);
    StreamData b = make_stream(rng, -8.0);  // different attack direction
    // Shift B's normals too (covariate drift).
    for (std::size_t i = 0; i < b.x_train.rows(); ++i)
      for (auto& v : b.x_train.row(i)) v += 2.0;

    CfeConfig cfg = fast_cfg();
    cfg.lambda_cl = lambda_cl;
    cfg.epochs = 8;
    Cfe cfe(cfg, 42);
    cfe.fit_experience(a.x_train, a.n_clean);
    Matrix h_before = cfe.encode(a.x_train);
    cfe.fit_experience(b.x_train, b.n_clean);
    Matrix h_after = cfe.encode(a.x_train);
    return mse(h_before, h_after);
  };
  const double drift_with = run(0.1);
  const double drift_without = run(0.0);
  EXPECT_LT(drift_with, drift_without);
}

TEST(Cfe, AblationFlagsZeroTheirLossTerms) {
  Rng rng(6);
  StreamData s = make_stream(rng);
  CfeConfig cfg = fast_cfg();
  cfg.use_cs = false;
  cfg.lambda_r = 0.0;
  Cfe cfe(cfg);
  CfeFitStats st = cfe.fit_experience(s.x_train, s.n_clean);
  EXPECT_EQ(st.loss_cs, 0.0);
  EXPECT_EQ(st.loss_r, 0.0);
  EXPECT_EQ(st.pseudo_k, 0u);  // pseudo-labeling skipped entirely
}

TEST(Cfe, RejectsChangedInputWidth) {
  Rng rng(7);
  StreamData s = make_stream(rng);
  Cfe cfe(fast_cfg());
  cfe.fit_experience(s.x_train, s.n_clean);
  EXPECT_THROW(cfe.fit_experience(Matrix(50, 3), Matrix(10, 3)),
               std::invalid_argument);
}

TEST(Cfe, InvalidConfigRejected) {
  CfeConfig bad = fast_cfg();
  bad.lambda_r = 1.5;
  EXPECT_THROW(Cfe{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace cnd::core
