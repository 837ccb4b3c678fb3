// Byte goldens for the detectors built on src/nn: FNV-1a-64 of the exact
// output bytes after a seeded setup and two experiences. Any change to a
// layer's arithmetic, to Adam's update or to the order in which a detector
// draws from its Rng renumbers these; a refactor that keeps every operation
// keeps them.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/detector_factory.hpp"
#include "io/binary.hpp"
#include "nn/mlp_classifier.hpp"
#include "tensor/rng.hpp"

namespace cnd {
namespace {

constexpr std::size_t kDim = 10;

template <typename T>
std::uint64_t hash_of(const std::vector<T>& v) {
  return io::fnv1a64(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

/// `rows` x kDim unit normal draws around `shift`; every `attack_every`-th
/// row (0 = none) moves a further +4 in its first three features.
Matrix draw(Rng& rng, std::size_t rows, std::size_t attack_every, double shift = 0.0) {
  Matrix m(rows, kDim);
  for (std::size_t i = 0; i < rows; ++i) {
    const bool attack = attack_every != 0 && i % attack_every == 0;
    for (std::size_t j = 0; j < kDim; ++j)
      m(i, j) = rng.normal() + shift + (attack && j < 3 ? 4.0 : 0.0);
  }
  return m;
}

/// Small networks (hidden 16, latent 8, 2 epochs) and a fixed K, so the
/// goldens exercise every layer and optimizer step without the elbow sweep.
core::DetectorConfig small_config() {
  core::DetectorConfig c;
  c.cnd.cfe.hidden_dim = 16;
  c.cnd.cfe.latent_dim = 8;
  c.cnd.cfe.epochs = 2;
  c.cnd.cfe.batch_size = 32;
  c.cnd.cfe.kmeans_k = 3;
  c.adcn.hidden_dim = 16;
  c.adcn.latent_dim = 8;
  c.adcn.epochs = 2;
  c.adcn.batch_size = 32;
  c.adcn.init_k = 3;
  c.lwf.hidden_dim = 16;
  c.lwf.latent_dim = 8;
  c.lwf.epochs = 2;
  c.lwf.batch_size = 32;
  c.lwf.k = 3;
  c.ae.hidden_dim = 16;
  c.ae.latent_dim = 8;
  c.ae.epochs = 2;
  c.ae.batch_size = 32;
  c.dif.hidden_dim = 16;
  c.dif.repr_dim = 8;
  c.dif.n_representations = 6;
  return c;
}

/// A registry detector after setup and two experiences (the second on a
/// shifted stream), with the rows to score it on.
struct Trained {
  std::unique_ptr<core::ContinualDetector> det;
  Matrix test;
};

Trained train(const std::string& name,
              const core::DetectorConfig& cfg = small_config()) {
  Rng rng(2024);
  const Matrix n_clean = draw(rng, 64, 0);
  const Matrix seed_x = draw(rng, 16, 2);
  std::vector<int> seed_y(seed_x.rows());
  for (std::size_t i = 0; i < seed_y.size(); ++i) seed_y[i] = i % 2 == 0 ? 1 : 0;
  const Matrix stream1 = draw(rng, 160, 8);
  const Matrix stream2 = draw(rng, 160, 8, 1.5);
  Trained t{core::make_detector(name, cfg), draw(rng, 256, 4)};
  t.det->setup(core::SetupContext{n_clean, seed_x, seed_y});
  t.det->observe_experience(stream1);
  t.det->observe_experience(stream2);
  return t;
}

std::uint64_t score_hash(const std::string& name) {
  Trained t = train(name);
  return hash_of(t.det->score(t.test));
}

/// CND-IDS with the given loss weights; returns the detector's name and the
/// hash of its scores.
std::pair<std::string, std::uint64_t> cnd_ids_hash(double lambda_r, double lambda_cl) {
  core::DetectorConfig c = small_config();
  c.cnd.cfe.lambda_r = lambda_r;
  c.cnd.cfe.lambda_cl = lambda_cl;
  Trained t = train("CND-IDS", c);
  return {t.det->name(), hash_of(t.det->score(t.test))};
}

std::uint64_t predict_hash(const std::string& name) {
  Trained t = train(name);
  return hash_of(t.det->predict(t.test));
}

TEST(NnGolden, CndIds) { EXPECT_EQ(score_hash("CND-IDS"), 0xadf13064d9751e14ull); }

// Table III removes a loss by zeroing its weight, and the detector's name
// follows the weights. A zero weight skips its loss term outright, so these
// are the scores of CND-IDS trained without L_R, and without L_R and L_CL.
TEST(NnGolden, CndIdsWithoutLr) {
  const auto [name, hash] = cnd_ids_hash(0.0, 0.1);
  EXPECT_EQ(name, "CND-IDS (w/o L_R)");
  EXPECT_EQ(hash, 0xf428a6c167af3672ull);
}

TEST(NnGolden, CndIdsWithoutLrAndLcl) {
  const auto [name, hash] = cnd_ids_hash(0.0, 0.0);
  EXPECT_EQ(name, "CND-IDS (w/o L_R and L_CL)");
  EXPECT_EQ(hash, 0xed944356ca258eebull);
}

// The shifted second stream trips the drift gate, so Adaptive refits and
// scores exactly as CND-IDS does.
TEST(NnGolden, Adaptive) { EXPECT_EQ(score_hash("Adaptive"), 0xadf13064d9751e14ull); }

TEST(NnGolden, Adcn) { EXPECT_EQ(predict_hash("ADCN"), 0xccd22d9060dbee95ull); }

TEST(NnGolden, Lwf) { EXPECT_EQ(predict_hash("LwF"), 0x53945b378449a7e4ull); }

TEST(NnGolden, Ae) { EXPECT_EQ(score_hash("AE"), 0x610154a348bd7c6bull); }

TEST(NnGolden, Dif) { EXPECT_EQ(score_hash("DIF"), 0xfc42c53a603f2428ull); }

TEST(NnGolden, MlpClassifier) {
  Rng rng(2025);
  const Matrix x = draw(rng, 96, 3);
  std::vector<std::size_t> y(x.rows());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = i % 3 == 0 ? 1 : 0;
  nn::MlpClassifier clf({.input_dim = kDim, .hidden_dim = 16, .n_classes = 2,
                         .epochs = 2, .batch_size = 32},
                        rng);
  clf.fit(x, y);
  const Matrix test = draw(rng, 48, 4);
  EXPECT_EQ(hash_of(clf.predict_proba1(test)), 0x575cdd015944abcfull);
}

}  // namespace
}  // namespace cnd
