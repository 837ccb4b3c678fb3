// LwF baseline — autoencoder + K-Means with a Learning-without-Forgetting
// distillation loss (Li & Hoiem), exactly the composite the paper evaluates
// as "LwF": per experience, the AE is trained on the new stream while its
// outputs are distilled toward the previous model's outputs; K-Means
// clusters the latent space and each cluster takes the majority label of
// the small labeled seed set.
#pragma once

#include "core/detector.hpp"
#include "ml/kmeans.hpp"
#include "nn/autoencoder.hpp"
#include "nn/optimizer.hpp"
#include "tensor/rng.hpp"

namespace cnd::baselines {

struct LwfConfig {
  std::size_t hidden_dim = 256;
  std::size_t latent_dim = 32;
  std::size_t epochs = 10;
  std::size_t batch_size = 128;
  double lr = 1e-3;
  std::size_t k = 0;            ///< 0 = elbow per experience.
  std::uint64_t seed = 8765;
};

class Lwf final : public core::ContinualDetector {
 public:
  explicit Lwf(const LwfConfig& cfg = {});

  std::string name() const override { return "LwF"; }
  void setup(const core::SetupContext& ctx) override;
  void observe_experience(const Matrix& x_train) override;
  bool has_scores() const override { return false; }
  std::vector<double> score(const Matrix& x_test) override;
  std::vector<int> predict(const Matrix& x_test) override;

 private:
  LwfConfig cfg_;
  Rng rng_;
  nn::Autoencoder ae_;
  nn::Adam opt_;
  nn::Sequential prev_encoder_;
  nn::Sequential prev_decoder_;
  bool has_prev_ = false;

  ml::KMeans km_;
  std::vector<int> cluster_label_;
  Matrix seed_x_;
  std::vector<int> seed_y_;
};

}  // namespace cnd::baselines
