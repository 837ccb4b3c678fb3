// Feature scalers.
//
// Network flow features span wildly different ranges (bytes vs flags), so
// every pipeline in this repository standardizes features before training.
#pragma once

#include <vector>

#include "tensor/matrix.hpp"

namespace cnd::ml {

/// z-score standardization per column; constant columns map to 0.
class StandardScaler {
 public:
  void fit(const Matrix& x);
  Matrix transform(const Matrix& x) const;
  Matrix fit_transform(const Matrix& x);
  bool fitted() const { return !mean_.empty(); }

  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& stddev() const { return std_; }

 private:
  std::vector<double> mean_;
  std::vector<double> std_;
};

}  // namespace cnd::ml
