// K-Means clustering with k-means++ initialization (Lloyd iterations).
//
// Used for the CND-IDS cluster-separation pseudo-labels (§III-C) and by the
// ADCN / LwF baselines' latent clustering.
#pragma once

#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace cnd::ml {

struct KMeansConfig {
  std::size_t k = 8;
  std::size_t max_iters = 100;
  double tol = 1e-6;  ///< stop when centroid movement (sq) drops below this.
};

class KMeans {
 public:
  explicit KMeans(const KMeansConfig& cfg) : cfg_(cfg) {}

  /// Fit on rows of x. Requires x.rows() >= k.
  void fit(const Matrix& x, Rng& rng);

  /// Nearest-centroid index per row.
  std::vector<std::size_t> predict(const Matrix& x) const;

  /// Sum of squared distances of each row to its nearest centroid.
  double inertia(const Matrix& x) const;

  const Matrix& centroids() const { return centroids_; }
  std::size_t k() const { return cfg_.k; }
  bool fitted() const { return !centroids_.empty(); }

 private:
  KMeansConfig cfg_;
  Matrix centroids_;
};

}  // namespace cnd::ml
