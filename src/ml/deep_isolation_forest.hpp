// Deep Isolation Forest (Xu et al., TKDE 2023).
//
// An ensemble of randomly-initialized (never trained) neural representations;
// each representation feeds its own isolation forest, and scores average
// across the ensemble. The random non-linear maps give axis-parallel iForest
// splits the effect of non-linear partitions in input space. One of the
// paper's strongest static ND baselines (DIF [33]).
#pragma once

#include <vector>

#include "ml/isolation_forest.hpp"
#include "nn/sequential.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace cnd::ml {

struct DeepIsolationForestConfig {
  /// Ensemble size; Xu et al. use 50, which at this repository's reference-
  /// set sizes makes DIF stronger than the paper reports (DESIGN.md).
  std::size_t n_representations = 24;
  std::size_t repr_dim = 20;           ///< output width of each random net.
  std::size_t hidden_dim = 64;         ///< hidden width of each random net.
  std::size_t trees_per_repr = 6;      ///< iForest trees per representation.
  std::size_t subsample = 256;
};

class DeepIsolationForest {
 public:
  explicit DeepIsolationForest(const DeepIsolationForestConfig& cfg = {})
      : cfg_(cfg) {}

  void fit(const Matrix& x, Rng& rng);

  /// Mean iForest score across the representation ensemble; higher = more
  /// anomalous.
  std::vector<double> score(const Matrix& x) const;

  bool fitted() const { return !forests_.empty(); }

 private:
  Matrix represent(std::size_t r, const Matrix& x) const;

  DeepIsolationForestConfig cfg_;
  std::vector<nn::Sequential> nets_;  // mutable forward is const-free: stored by value
  std::vector<IsolationForest> forests_;
};

}  // namespace cnd::ml
