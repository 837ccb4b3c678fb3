// Gaussian mixture model (diagonal covariance, EM) with negative
// log-likelihood anomaly scoring.
//
// A classic density-based novelty detector for IDS: fit on clean normal
// traffic, score by how unlikely a flow is under the mixture. Diagonal
// covariances keep EM robust at flow-feature dimensionality.
#pragma once

#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace cnd::ml {

struct GmmConfig {
  std::size_t n_components = 4;
};

class Gmm {
 public:
  explicit Gmm(const GmmConfig& cfg = {}) : cfg_(cfg) {}

  /// EM fit; means initialized by k-means++-style seeding.
  void fit(const Matrix& x, Rng& rng);

  /// Per-row log-likelihood under the mixture.
  std::vector<double> log_likelihood(const Matrix& x) const;

  /// Anomaly score = negative log-likelihood (higher = more anomalous).
  std::vector<double> score(const Matrix& x) const;

  bool fitted() const { return !weights_.empty(); }
  std::size_t n_components() const { return weights_.size(); }
  const std::vector<double>& weights() const { return weights_; }

 private:
  GmmConfig cfg_;
  std::vector<double> weights_;  ///< mixing proportions, sum to 1.
  Matrix means_;                 ///< k x d.
  Matrix vars_;                  ///< k x d diagonal covariances.
};

}  // namespace cnd::ml
