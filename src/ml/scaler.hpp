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

/// Min-max scaling to [0, 1] per column; constant columns map to 0.
class MinMaxScaler {
 public:
  void fit(const Matrix& x);
  Matrix transform(const Matrix& x) const;
  Matrix fit_transform(const Matrix& x);
  bool fitted() const { return !min_.empty(); }

 private:
  std::vector<double> min_;
  std::vector<double> range_;
};

}  // namespace cnd::ml
