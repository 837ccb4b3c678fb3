// Cluster-separation pseudo-labeling (paper §III-C).
//
// K-Means is fit on the unlabeled training stream; every cluster that
// captures at least one clean-normal (N_c) point is declared a "normal"
// cluster, its members get pseudo-label 0, and all other points get
// pseudo-label 1. The triplet-margin loss then pushes the two pseudo-classes
// apart in the CFE's latent space.
#pragma once

#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace cnd::core {

struct PseudoLabels {
  std::vector<int> labels;          ///< 0 = normal-like, 1 = anomalous-like.
  std::size_t k = 0;                ///< cluster count actually used.
  std::size_t n_normal_clusters = 0;
  std::size_t n_anomalous = 0;      ///< points labeled 1.
};

/// Compute pseudo-labels for every row of `x_train`.
/// `k = 0` selects the cluster count with the elbow method (the paper's
/// choice); otherwise the given k is used directly.
PseudoLabels cluster_separation_labels(const Matrix& x_train, const Matrix& n_clean,
                                       std::size_t k, Rng& rng);

}  // namespace cnd::core
