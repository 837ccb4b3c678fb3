#include "ml/lof.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/parallel_for.hpp"
#include "tensor/assert.hpp"

namespace cnd::ml {

void Lof::fit(const Matrix& x) {
  require(x.rows() > cfg_.k, "Lof::fit: need more than k reference points");
  nn_.bind(x);
  const std::size_t n = nn_.ref().rows();

  // Provider kNN: bit-identical to linalg::knn on the same arguments (same
  // kernel, cached norms).
  const linalg::Knn nn = nn_.knn(nn_.ref(), cfg_.k, /*exclude_self=*/true);
  ref_kdist_.resize(n);
  for (std::size_t i = 0; i < n; ++i) ref_kdist_[i] = nn.distances[i].back();

  // lrd reads the complete ref_kdist_ array, so it only starts after the
  // loop above finishes; per-point lrds are then independent.
  ref_lrd_.resize(n);
  runtime::parallel_for(0, n, runtime::grain_for_cost(cfg_.k),
                        [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      ref_lrd_[i] = lrd_of(nn.distances[i], nn.indices[i]);
  });
}

double Lof::lrd_of(std::span<const double> dists,
                   const std::vector<std::size_t>& idx) const {
  double reach_sum = 0.0;
  for (std::size_t j = 0; j < idx.size(); ++j)
    reach_sum += std::max(dists[j], ref_kdist_[idx[j]]);
  const double avg = reach_sum / static_cast<double>(idx.size());
  return 1.0 / std::max(avg, 1e-12);
}

std::vector<double> Lof::score(const Matrix& x) const {
  require(fitted(), "Lof::score: not fitted");
  const linalg::Knn nn = nn_.knn(x, cfg_.k, /*exclude_self=*/false);
  std::vector<double> out(x.rows());
  runtime::parallel_for(0, x.rows(), runtime::grain_for_cost(cfg_.k),
                        [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const double lrd_q = lrd_of(nn.distances[i], nn.indices[i]);
      double neigh_lrd = 0.0;
      for (std::size_t j : nn.indices[i]) neigh_lrd += ref_lrd_[j];
      neigh_lrd /= static_cast<double>(nn.indices[i].size());
      out[i] = neigh_lrd / std::max(lrd_q, 1e-12);
    }
  });
  return out;
}

}  // namespace cnd::ml
