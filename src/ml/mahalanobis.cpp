#include "ml/mahalanobis.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/eigen.hpp"
#include "linalg/stats.hpp"
#include "tensor/assert.hpp"

namespace cnd::ml {

namespace {

constexpr double kReg = 1e-6;  ///< eigenvalue floor relative to the largest.

}  // namespace

void MahalanobisDetector::fit(const Matrix& x) {
  require(x.rows() >= 2, "MahalanobisDetector::fit: need at least 2 rows");
  mean_ = col_mean(x);
  const Matrix cov = linalg::covariance(x);
  const linalg::EigenResult eig = linalg::eigen_symmetric(cov);

  const double floor = std::max(eig.values.front(), 1.0) * kReg;
  // whitener = V diag(lambda^-1/2) V^T; distance = ||W (x - mu)||^2.
  Matrix vs = eig.vectors;  // n x n, columns scaled by lambda^-1/2
  for (std::size_t j = 0; j < vs.cols(); ++j) {
    const double inv = 1.0 / std::sqrt(std::max(eig.values[j], floor));
    for (std::size_t i = 0; i < vs.rows(); ++i) vs(i, j) *= inv;
  }
  whitener_ = matmul_bt(vs, eig.vectors);
}

std::vector<double> MahalanobisDetector::score(const Matrix& x) const {
  require(fitted(), "MahalanobisDetector::score: not fitted");
  require(x.cols() == mean_.size(), "MahalanobisDetector::score: feature mismatch");
  const Matrix centered = sub_rowvec(x, mean_);
  const Matrix w = matmul_bt(centered, whitener_);
  std::vector<double> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    double s = 0.0;
    for (double v : w.row(i)) s += v * v;
    out[i] = s;
  }
  return out;
}

}  // namespace cnd::ml
