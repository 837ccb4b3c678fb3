// ADCN baseline — Autonomous Deep Clustering Network (Ashfahani & Pratama,
// TNNLS 2023), as used by the paper for its UCL comparison.
//
// Faithful-at-the-protocol-level reimplementation: an autoencoder learns a
// latent space per experience (reconstruction + cluster-pull loss with a
// latent-distillation anchor against the previous model), latent clusters
// grow autonomously when new structure appears (far-point spawning), and
// classification assigns each cluster the majority label of the small
// labeled seed set — the paper notes ADCN "require[s] a small amount of
// labeled normal and attack data to perform classification".
#pragma once

#include "core/detector.hpp"
#include "nn/autoencoder.hpp"
#include "nn/optimizer.hpp"
#include "tensor/rng.hpp"

namespace cnd::baselines {

struct AdcnConfig {
  std::size_t hidden_dim = 256;
  std::size_t latent_dim = 32;
  std::size_t epochs = 10;
  std::size_t batch_size = 128;
  double lr = 1e-3;
  std::size_t init_k = 0;        ///< 0 = elbow on first experience latent.
  std::uint64_t seed = 4321;
};

class Adcn final : public core::ContinualDetector {
 public:
  explicit Adcn(const AdcnConfig& cfg = {});

  std::string name() const override { return "ADCN"; }
  void setup(const core::SetupContext& ctx) override;
  void observe_experience(const Matrix& x_train) override;
  bool has_scores() const override { return false; }
  std::vector<double> score(const Matrix& x_test) override;
  std::vector<int> predict(const Matrix& x_test) override;

  std::size_t n_clusters() const { return centroids_.rows(); }

 private:
  void relabel_clusters();
  std::vector<std::size_t> assign(const Matrix& latent) const;

  AdcnConfig cfg_;
  Rng rng_;
  nn::Autoencoder ae_;
  nn::Adam opt_;
  nn::Sequential prev_encoder_;
  bool has_prev_ = false;

  Matrix centroids_;              ///< k x latent_dim.
  std::vector<int> cluster_label_;  ///< 0/1 per centroid.
  Matrix seed_x_;
  std::vector<int> seed_y_;
};

}  // namespace cnd::baselines
