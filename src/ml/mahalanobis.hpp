// Mahalanobis-distance novelty detector.
//
// Scores a flow by its squared Mahalanobis distance to the clean-normal
// distribution (full covariance, eigendecomposed once at fit time with a
// variance floor for stability). The classic parametric single-Gaussian
// baseline — cheap, strong when normal traffic is unimodal, brittle when it
// is not, which is exactly the gap the multi-modal generators exercise.
#pragma once

#include <vector>

#include "tensor/matrix.hpp"

namespace cnd::ml {

class MahalanobisDetector {
 public:
  void fit(const Matrix& x);

  /// Squared Mahalanobis distance per row; higher = more anomalous.
  std::vector<double> score(const Matrix& x) const;

  bool fitted() const { return !mean_.empty(); }

 private:
  std::vector<double> mean_;
  Matrix whitener_;  ///< d x d: V diag(1/sqrt(lambda)) V^T.
};

}  // namespace cnd::ml
