// One-class SVM (Schölkopf et al. 2001) with RBF kernel.
//
// Dual problem:  min 1/2 a^T K a   s.t.  0 <= a_i <= 1/(nu*n),  sum a_i = 1.
// Solved with SMO-style pairwise coordinate descent that preserves the
// equality constraint. One of the paper's static ND baselines (OC-SVM [15]).
#pragma once

#include <vector>

#include "tensor/matrix.hpp"

namespace cnd::ml {

struct OcSvmConfig {
  double nu = 0.05;       ///< fraction bound on outliers / support vectors.
  std::size_t max_train = 1500;   ///< subsample cap (kernel matrix is n^2).
};

class OcSvm {
 public:
  explicit OcSvm(const OcSvmConfig& cfg = {}) : cfg_(cfg) {}

  /// Fit on (subsampled) reference data. Deterministic subsample: stride.
  void fit(const Matrix& x);

  /// Anomaly score per row: rho - sum_i a_i K(x_i, x). Positive = outlier
  /// side of the boundary; higher = more anomalous.
  std::vector<double> score(const Matrix& x) const;

  bool fitted() const { return !sv_.empty(); }
  double rho() const { return rho_; }
  std::size_t n_support() const { return sv_.rows(); }

 private:
  double kernel(std::span<const double> a, std::span<const double> b) const;

  OcSvmConfig cfg_;
  double gamma_ = 1.0;  ///< RBF width, sklearn "scale": 1 / (d * var).
  double rho_ = 0.0;
  Matrix sv_;                  ///< support vectors (alpha > 0).
  std::vector<double> alpha_;  ///< matching dual coefficients.
};

}  // namespace cnd::ml
