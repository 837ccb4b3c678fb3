#include "core/cluster_separation.hpp"

#include <algorithm>

#include "ml/elbow.hpp"
#include "ml/kmeans.hpp"
#include "tensor/assert.hpp"

namespace cnd::core {

PseudoLabels cluster_separation_labels(const Matrix& x_train, const Matrix& n_clean,
                                       std::size_t k, Rng& rng) {
  require(x_train.rows() >= 4, "cluster_separation: too few training points");
  require(n_clean.rows() >= 1, "cluster_separation: empty N_c");
  require(x_train.cols() == n_clean.cols(), "cluster_separation: feature mismatch");

  PseudoLabels out;
  // The elbow search starts at 4: the cluster count must exceed the number
  // of normal traffic modes or every cluster captures an N_c point and the
  // pseudo-labeling degenerates to "all normal".
  out.k = k != 0 ? k : ml::elbow_k(x_train, rng, /*k_min=*/4, /*k_max=*/20);
  out.k = std::min(out.k, x_train.rows());

  ml::KMeans km({.k = out.k});
  km.fit(x_train, rng);

  // Clusters owning at least one N_c point are "normal" clusters.
  std::vector<char> is_normal_cluster(out.k, 0);
  for (std::size_t c : km.predict(n_clean)) is_normal_cluster[c] = 1;
  out.n_normal_clusters = static_cast<std::size_t>(
      std::count(is_normal_cluster.begin(), is_normal_cluster.end(), char{1}));

  const auto assign = km.predict(x_train);
  out.labels.resize(x_train.rows());
  for (std::size_t i = 0; i < assign.size(); ++i) {
    out.labels[i] = is_normal_cluster[assign[i]] ? 0 : 1;
    out.n_anomalous += static_cast<std::size_t>(out.labels[i]);
  }
  return out;
}

}  // namespace cnd::core
