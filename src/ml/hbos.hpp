// HBOS — Histogram-Based Outlier Score (Goldstein & Dengel 2012).
//
// Per-feature equal-width histograms of the reference data; a flow's score
// is the sum of negative log densities of its feature values. Assumes
// feature independence, which makes it extremely fast and a standard
// lightweight IDS baseline.
#pragma once

#include <vector>

#include "tensor/matrix.hpp"

namespace cnd::ml {

class Hbos {
 public:
  void fit(const Matrix& x);

  /// Sum over features of -log(bin density); values outside the fitted
  /// range fall into virtual empty bins (maximum surprise for that feature).
  std::vector<double> score(const Matrix& x) const;

  bool fitted() const { return !lo_.empty(); }

 private:
  std::vector<double> lo_, width_;           ///< per-feature bin geometry.
  std::vector<std::vector<double>> neglog_;  ///< per-feature -log density.
  double empty_penalty_ = 0.0;               ///< score for out-of-range/empty.
};

}  // namespace cnd::ml
