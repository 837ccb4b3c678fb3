#include "ml/scaler.hpp"

#include "tensor/assert.hpp"

namespace cnd::ml {

void StandardScaler::fit(const Matrix& x) {
  require(x.rows() > 0, "StandardScaler::fit: empty matrix");
  mean_ = col_mean(x);
  std_ = col_stddev(x, mean_);
}

Matrix StandardScaler::transform(const Matrix& x) const {
  require(fitted(), "StandardScaler::transform: not fitted");
  require(x.cols() == mean_.size(), "StandardScaler::transform: feature mismatch");
  Matrix out = x;
  for (std::size_t i = 0; i < out.rows(); ++i) {
    auto r = out.row(i);
    for (std::size_t j = 0; j < out.cols(); ++j)
      r[j] = std_[j] > 1e-12 ? (r[j] - mean_[j]) / std_[j] : 0.0;
  }
  return out;
}

Matrix StandardScaler::fit_transform(const Matrix& x) {
  fit(x);
  return transform(x);
}

}  // namespace cnd::ml
