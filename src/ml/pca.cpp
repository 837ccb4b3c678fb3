#include "ml/pca.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/eigen.hpp"
#include "linalg/stats.hpp"
#include "tensor/assert.hpp"
#include "tensor/check.hpp"

namespace cnd::ml {

Pca::Pca(std::vector<double> mean, Matrix components)
    : mean_(std::move(mean)), components_(std::move(components)) {
  require(!mean_.empty() && components_.rows() == mean_.size() &&
              components_.cols() >= 1,
          "Pca: invalid restored parameters");
}

void Pca::fit(const Matrix& x) {
  require(x.rows() >= 2, "Pca::fit: need at least 2 rows");
  require(cfg_.explained_variance > 0.0 && cfg_.explained_variance <= 1.0,
          "Pca::fit: explained_variance must be in (0, 1]");

  const Matrix cov = linalg::covariance(x);
  mean_ = col_mean(x);
  linalg::EigenResult eig = linalg::eigen_symmetric(cov);

  double total = 0.0;
  for (double v : eig.values) total += std::max(v, 0.0);
  if (total <= 0.0) total = 1.0;  // Degenerate constant data: keep 1 component.

  evr_.clear();
  std::size_t k = 0;
  double cum = 0.0;
  for (std::size_t i = 0; i < eig.values.size(); ++i) {
    const double ratio = std::max(eig.values[i], 0.0) / total;
    evr_.push_back(ratio);
    cum += ratio;
    ++k;
    if (cum >= cfg_.explained_variance) break;
  }
  CND_CHECK(k >= 1, "Pca::fit: no component kept");

  components_ = Matrix(x.cols(), k);
  for (std::size_t i = 0; i < x.cols(); ++i)
    for (std::size_t j = 0; j < k; ++j) components_(i, j) = eig.vectors(i, j);
}

Matrix Pca::transform(const Matrix& x) const {
  require(fitted(), "Pca::transform: not fitted");
  require(x.cols() == mean_.size(), "Pca::transform: feature mismatch");
  return matmul(sub_rowvec(x, mean_), components_);
}

Matrix Pca::inverse_transform(const Matrix& l) const {
  require(fitted(), "Pca::inverse_transform: not fitted");
  require(l.cols() == components_.cols(), "Pca::inverse_transform: width mismatch");
  Matrix x = matmul_bt(l, components_);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    auto r = x.row(i);
    for (std::size_t j = 0; j < x.cols(); ++j) r[j] += mean_[j];
  }
  return x;
}

std::vector<double> Pca::score(const Matrix& x) const {
  Workspace ws;
  std::vector<double> s;
  score_into(x, s, ws);
  return s;
}

void Pca::transform_into(const Matrix& x, Matrix& out, Workspace& ws) const {
  require(fitted(), "Pca::transform: not fitted");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  require(x.cols() == mean_.size(), "Pca::transform: feature mismatch");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  Matrix& centered = ws.mat(0, x.rows(), x.cols());
  sub_rowvec_into(centered, x, mean_);
  matmul_into(out, centered, components_);
}

// cnd-hot
void Pca::score_into(const Matrix& x, std::vector<double>& out, Workspace& ws) const {
  require(fitted(), "Pca::score: not fitted");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  // Same operation sequence as transform() + inverse_transform() + sq_dist,
  // just through workspace buffers — scores are bit-identical to score().
  Matrix& l = ws.mat(1, x.rows(), components_.cols());
  transform_into(x, l, ws);
  Matrix& recon = ws.mat(2, x.rows(), x.cols());
  matmul_bt_into(recon, l, components_);
  add_rowvec_inplace(recon, mean_);
  out.resize(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) out[i] = sq_dist(x.row(i), recon.row(i));
}

}  // namespace cnd::ml
