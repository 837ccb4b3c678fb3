// k-nearest-neighbour distance novelty detector.
//
// Scores a flow by its mean distance to the k nearest reference (clean
// normal) flows — the simplest non-parametric ND baseline and the usual
// sanity check against which LOF's locality correction is measured.
#pragma once

#include <vector>

#include "linalg/distance.hpp"
#include "tensor/matrix.hpp"

namespace cnd::ml {

struct KnnDetectorConfig {
  std::size_t k = 10;
  /// Neighbor-query knob: nprobe = 0 (default) is exact brute force,
  /// bit-identical to the pre-ANN path; nprobe > 0 routes score-time kNN
  /// through an IVF index over the reference set.
  linalg::AnnConfig ann{};
};

class KnnDetector {
 public:
  explicit KnnDetector(const KnnDetectorConfig& cfg = {}) : cfg_(cfg) {}

  void fit(const Matrix& x);

  /// Mean distance to the k nearest neighbours; higher = more anomalous.
  std::vector<double> score(const Matrix& x) const;

  bool fitted() const { return nn_.ready(); }

 private:
  KnnDetectorConfig cfg_;
  /// Owns the reference matrix, its cached row norms, and the optional IVF
  /// index (docs/ANN.md).
  linalg::NeighborProvider nn_;
};

}  // namespace cnd::ml
