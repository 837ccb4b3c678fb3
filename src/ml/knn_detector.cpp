#include "ml/knn_detector.hpp"

#include "linalg/distance.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/assert.hpp"

namespace cnd::ml {

void KnnDetector::fit(const Matrix& x) {
  require(x.rows() > cfg_.k, "KnnDetector::fit: need more than k rows");
  nn_.bind(x, cfg_.ann);
}

std::vector<double> KnnDetector::score(const Matrix& x) const {
  require(fitted(), "KnnDetector::score: not fitted");
  // The neighbour search inside the provider is the hot part and is itself
  // batch-parallel; the reduction below parallelizes per sample. Exact mode
  // (ann.nprobe = 0) is bit-identical to linalg::knn(x, ref, k, false).
  const linalg::Knn nn = nn_.knn(x, cfg_.k, /*exclude_self=*/false);
  std::vector<double> out(x.rows());
  runtime::parallel_for(0, x.rows(), runtime::grain_for_cost(cfg_.k),
                        [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      double s = 0.0;
      for (double d : nn.distances[i]) s += d;
      out[i] = s / static_cast<double>(nn.distances[i].size());
    }
  });
  return out;
}

}  // namespace cnd::ml
