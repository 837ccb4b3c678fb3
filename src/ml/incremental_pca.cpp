#include "ml/incremental_pca.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/eigen.hpp"
#include "tensor/assert.hpp"
#include "tensor/check.hpp"

namespace cnd::ml {

// cnd-hot
void IncrementalPca::partial_fit(const Matrix& x) {
  require(x.rows() > 0, "IncrementalPca::partial_fit: empty batch");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  if (n_ == 0) {
    mean_.assign(x.cols(), 0.0);  // cnd-analyze: allow(hot-path-alloc) — first batch only
    comoment_ = Matrix(x.cols(), x.cols());
  }
  require(x.cols() == mean_.size(), "IncrementalPca::partial_fit: width mismatch");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)

  // Chan et al. pairwise update: merge batch moments into running moments.
  // Temporaries live in the member workspace so a stream of equally-shaped
  // batches updates the moments without heap traffic.
  const double n_a = static_cast<double>(n_);
  const double n_b = static_cast<double>(x.rows());
  auto& mean_b = ws_.vec(0, x.cols());
  std::fill(mean_b.begin(), mean_b.end(), 0.0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    auto r = x.row(i);
    for (std::size_t j = 0; j < x.cols(); ++j) mean_b[j] += r[j];
  }
  for (double& v : mean_b) v /= n_b;
  Matrix& centered = ws_.mat(0, x.rows(), x.cols());
  sub_rowvec_into(centered, x, mean_b);
  Matrix& m2_b = ws_.mat(1, x.cols(), x.cols());
  matmul_at_into(m2_b, centered, centered);

  const double n_ab = n_a + n_b;
  auto& delta = ws_.vec(1, mean_.size());
  for (std::size_t j = 0; j < mean_.size(); ++j) delta[j] = mean_b[j] - mean_[j];

  comoment_ += m2_b;
  const double corr = n_a * n_b / n_ab;
  for (std::size_t i = 0; i < comoment_.rows(); ++i)
    for (std::size_t j = 0; j < comoment_.cols(); ++j)
      comoment_(i, j) += corr * delta[i] * delta[j];

  for (std::size_t j = 0; j < mean_.size(); ++j)
    mean_[j] += delta[j] * (n_b / n_ab);
  n_ += x.rows();
  refreshed_ = false;
}

Matrix IncrementalPca::covariance() const {
  require(n_ >= 2, "IncrementalPca::covariance: need at least 2 rows");
  Matrix cov = comoment_;
  cov *= 1.0 / static_cast<double>(n_ - 1);
  // Exact symmetry for the eigensolver.
  for (std::size_t i = 0; i < cov.rows(); ++i)
    for (std::size_t j = i + 1; j < cov.cols(); ++j) {
      const double v = 0.5 * (cov(i, j) + cov(j, i));
      cov(i, j) = v;
      cov(j, i) = v;
    }
  return cov;
}

void IncrementalPca::refresh() {
  const Matrix cov = covariance();
  const linalg::EigenResult eig = linalg::eigen_symmetric(cov);

  double total = 0.0;
  for (double v : eig.values) total += std::max(v, 0.0);
  if (total <= 0.0) total = 1.0;

  const std::size_t cap = cfg_.max_components
                              ? std::min(cfg_.max_components, cov.cols())
                              : cov.cols();
  std::size_t k = 0;
  double cum = 0.0;
  for (std::size_t i = 0; i < eig.values.size() && k < cap; ++i) {
    cum += std::max(eig.values[i], 0.0) / total;
    ++k;
    if (cum >= cfg_.explained_variance) break;
  }
  CND_CHECK(k >= 1, "IncrementalPca::refresh: no component kept");

  components_ = Matrix(cov.cols(), k);
  for (std::size_t i = 0; i < cov.cols(); ++i)
    for (std::size_t j = 0; j < k; ++j) components_(i, j) = eig.vectors(i, j);
  basis_mean_ = mean_;
  refreshed_ = true;
}

std::size_t IncrementalPca::n_components() const {
  require(refreshed_, "IncrementalPca: refresh() not called");
  return components_.cols();
}

Matrix IncrementalPca::transform(const Matrix& x) const {
  require(refreshed_, "IncrementalPca::transform: refresh() not called");
  require(x.cols() == basis_mean_.size(), "IncrementalPca::transform: width mismatch");
  return matmul(sub_rowvec(x, basis_mean_), components_);
}

std::vector<double> IncrementalPca::score(const Matrix& x) const {
  Workspace ws;
  std::vector<double> out;
  score_into(x, out, ws);
  return out;
}

// cnd-hot
void IncrementalPca::score_into(const Matrix& x, std::vector<double>& out,
                                Workspace& ws) const {
  require(refreshed_, "IncrementalPca::score: refresh() not called");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  require(x.cols() == basis_mean_.size(), "IncrementalPca::score: width mismatch");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  // Same operation sequence as transform() + the naive score loop, through
  // workspace buffers — scores are bit-identical to score().
  Matrix& centered = ws.mat(0, x.rows(), x.cols());
  sub_rowvec_into(centered, x, basis_mean_);
  Matrix& l = ws.mat(1, x.rows(), components_.cols());
  matmul_into(l, centered, components_);
  Matrix& recon = ws.mat(2, x.rows(), x.cols());
  matmul_bt_into(recon, l, components_);
  out.resize(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    auto rr = recon.row(i);
    auto xr = x.row(i);
    double s = 0.0;
    for (std::size_t j = 0; j < x.cols(); ++j) {
      const double d = (xr[j] - basis_mean_[j]) - rr[j];
      s += d * d;
    }
    out[i] = s;
  }
}

}  // namespace cnd::ml
