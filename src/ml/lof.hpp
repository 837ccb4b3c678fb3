// Local Outlier Factor (Breunig et al. 2000), novelty-detection variant:
// fit on reference (normal) data, score queries against it. One of the
// paper's static ND baselines (LOF [15]).
#pragma once

#include <vector>

#include "linalg/distance.hpp"
#include "tensor/matrix.hpp"

namespace cnd::ml {

struct LofConfig {
  std::size_t k = 20;  ///< neighbourhood size (MinPts).
};

class Lof {
 public:
  explicit Lof(const LofConfig& cfg = {}) : cfg_(cfg) {}

  /// Store reference data and precompute its k-distances and lrd values.
  void fit(const Matrix& x);

  /// LOF score per query row (≈1 for inliers, >1 for outliers).
  std::vector<double> score(const Matrix& x) const;

  bool fitted() const { return nn_.ready(); }

 private:
  /// Reachability-based local density of a point given its neighbours in ref.
  double lrd_of(std::span<const double> dists,
                const std::vector<std::size_t>& idx) const;

  LofConfig cfg_;
  /// Owns the reference matrix and its cached row norms (exact mode).
  linalg::NeighborProvider nn_;
  std::vector<double> ref_kdist_;  ///< k-distance of each reference point.
  std::vector<double> ref_lrd_;    ///< local reachability density of refs.
};

}  // namespace cnd::ml
