// Principal component analysis with feature-reconstruction-error scoring.
//
// This is both the paper's ND baseline (PCA [23]) and the novelty-detection
// head of CND-IDS: PCA is fit on (encoded) clean normal data, the number of
// components is chosen by explained variance (95% in the paper), and the
// anomaly score of a point h is FRE = ||h - T^{-1}(T(h))||^2.
#pragma once

#include <vector>

#include "tensor/kernels.hpp"
#include "tensor/matrix.hpp"

namespace cnd::ml {

struct PcaConfig {
  /// Keep the smallest number of components whose cumulative explained
  /// variance ratio reaches this threshold.
  double explained_variance = 0.95;
};

class Pca {
 public:
  explicit Pca(const PcaConfig& cfg = {}) : cfg_(cfg) {}

  /// Restore a fitted PCA from its parameters (deserialization path).
  Pca(std::vector<double> mean, Matrix components);

  /// Fit mean and principal basis on rows of x.
  void fit(const Matrix& x);

  /// Project to the principal subspace: (x - mu) W, shape n x k.
  Matrix transform(const Matrix& x) const;

  /// Back-project: l W^T + mu, shape n x d.
  Matrix inverse_transform(const Matrix& l) const;

  /// Feature reconstruction error per row: ||h - T^{-1}(T(h))||^2.
  std::vector<double> score(const Matrix& x) const;

  /// Allocation-free projection: out = (x - mu) W using `ws` for the
  /// centered temporary. Same values as transform(), bit-for-bit.
  void transform_into(const Matrix& x, Matrix& out, Workspace& ws) const;

  /// Allocation-free FRE scoring through `ws`; steady-state calls with a
  /// fixed batch shape touch the heap zero times. Same values as score().
  void score_into(const Matrix& x, std::vector<double>& out, Workspace& ws) const;

  std::size_t n_components() const { return components_.cols(); }
  const std::vector<double>& explained_variance_ratio() const { return evr_; }
  const std::vector<double>& center() const { return mean_; }
  const Matrix& components() const { return components_; }
  bool fitted() const { return !components_.empty(); }

 private:
  PcaConfig cfg_;
  std::vector<double> mean_;
  Matrix components_;  ///< d x k, orthonormal columns.
  std::vector<double> evr_;
};

}  // namespace cnd::ml
