#include "ml/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/distance.hpp"
#include "tensor/assert.hpp"

namespace cnd::ml {

// The fused blocked nearest-centroid pass used to live here as a file-local
// helper; it is now linalg::nearest_centroid (hoisted verbatim so the IVF
// index can train with the identical kernel — see linalg/distance.hpp).
using linalg::nearest_centroid;

void KMeans::fit(const Matrix& x, Rng& rng) {
  require(cfg_.k > 0, "KMeans: k must be > 0");
  require(x.rows() >= cfg_.k, "KMeans: fewer points than clusters");

  // k-means++ seeding (scalar: k single-centroid sweeps, RNG-coupled).
  centroids_ = Matrix(cfg_.k, x.cols());
  const auto first =
      static_cast<std::size_t>(rng.randint(0, static_cast<std::int64_t>(x.rows()) - 1));
  centroids_.set_row(0, x.row(first));
  std::vector<double> d2(x.rows(), std::numeric_limits<double>::infinity());
  for (std::size_t c = 1; c < cfg_.k; ++c) {
    for (std::size_t i = 0; i < x.rows(); ++i)
      d2[i] = std::min(d2[i], sq_dist(x.row(i), centroids_.row(c - 1)));
    double total = 0.0;
    for (double v : d2) total += v;
    std::size_t chosen;
    if (total <= 0.0) {
      chosen = static_cast<std::size_t>(
          rng.randint(0, static_cast<std::int64_t>(x.rows()) - 1));
    } else {
      double r = rng.uniform(0.0, total);
      chosen = x.rows() - 1;
      for (std::size_t i = 0; i < x.rows(); ++i) {
        r -= d2[i];
        if (r <= 0.0) {
          chosen = i;
          break;
        }
      }
    }
    centroids_.set_row(c, x.row(chosen));
  }

  // Lloyd iterations; the assignment step is the hot part and runs fused.
  std::vector<std::size_t> assign(x.rows());
  for (std::size_t iter = 0; iter < cfg_.max_iters; ++iter) {
    nearest_centroid(x, centroids_, &assign, nullptr);

    Matrix sums(cfg_.k, x.cols());
    std::vector<std::size_t> counts(cfg_.k, 0);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      auto s = sums.row(assign[i]);
      auto r = x.row(i);
      for (std::size_t j = 0; j < x.cols(); ++j) s[j] += r[j];
      ++counts[assign[i]];
    }

    double movement = 0.0;
    for (std::size_t c = 0; c < cfg_.k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random point.
        const auto r = static_cast<std::size_t>(
            rng.randint(0, static_cast<std::int64_t>(x.rows()) - 1));
        movement += sq_dist(centroids_.row(c), x.row(r));
        centroids_.set_row(c, x.row(r));
        continue;
      }
      auto s = sums.row(c);
      auto old = centroids_.row(c);
      for (std::size_t j = 0; j < x.cols(); ++j) {
        const double nc = s[j] / static_cast<double>(counts[c]);
        const double d = nc - old[j];
        movement += d * d;
        old[j] = nc;
      }
    }
    if (movement < cfg_.tol) break;
  }
}

std::vector<std::size_t> KMeans::predict(const Matrix& x) const {
  require(fitted(), "KMeans::predict: not fitted");
  require(x.cols() == centroids_.cols(), "KMeans::predict: feature mismatch");
  std::vector<std::size_t> out(x.rows());
  nearest_centroid(x, centroids_, &out, nullptr);
  return out;
}

double KMeans::inertia(const Matrix& x) const {
  require(fitted(), "KMeans::inertia: not fitted");
  require(x.cols() == centroids_.cols(), "KMeans::inertia: feature mismatch");
  std::vector<double> d2(x.rows());
  nearest_centroid(x, centroids_, nullptr, &d2);
  double total = 0.0;
  for (double v : d2) total += v;
  return total;
}

}  // namespace cnd::ml
