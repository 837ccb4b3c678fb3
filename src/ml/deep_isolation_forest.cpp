#include "ml/deep_isolation_forest.hpp"

#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/assert.hpp"

namespace cnd::ml {

void DeepIsolationForest::fit(const Matrix& x, Rng& rng) {
  require(x.rows() >= 2, "DeepIsolationForest::fit: need at least 2 points");
  require(cfg_.n_representations > 0, "DeepIsolationForest::fit: empty ensemble");

  nets_.clear();
  forests_.clear();
  for (std::size_t r = 0; r < cfg_.n_representations; ++r) {
    nn::Sequential net;
    net.add(std::make_unique<nn::Linear>(x.cols(), cfg_.hidden_dim, rng));
    net.add(std::make_unique<nn::Tanh>());
    net.add(std::make_unique<nn::Linear>(cfg_.hidden_dim, cfg_.repr_dim, rng));
    nets_.push_back(std::move(net));

    IsolationForest forest(
        {.n_trees = cfg_.trees_per_repr, .subsample = cfg_.subsample});
    Matrix z = nets_.back().forward(x, /*train=*/false);
    forest.fit(z, rng);
    forests_.push_back(std::move(forest));
  }
}

Matrix DeepIsolationForest::represent(std::size_t r, const Matrix& x) const {
  // forward() only mutates caches when train=true; cast is confined here.
  auto& net = const_cast<nn::Sequential&>(nets_[r]);
  return net.forward(x, /*train=*/false);
}

std::vector<double> DeepIsolationForest::score(const Matrix& x) const {
  require(fitted(), "DeepIsolationForest::score: not fitted");
  // One task per representation: each owns its net and forest, so tasks
  // share nothing but `x`. The sum then runs in representation order, the
  // same additions at any lane count.
  std::vector<std::vector<double>> per_repr(forests_.size());
  runtime::parallel_for(0, forests_.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r)
      per_repr[r] = forests_[r].score(represent(r, x));
  });
  std::vector<double> out(x.rows(), 0.0);
  for (const auto& s : per_repr)
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += s[i];
  for (double& v : out) v /= static_cast<double>(forests_.size());
  return out;
}

}  // namespace cnd::ml
