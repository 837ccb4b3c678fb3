#include "nn/mlp_classifier.hpp"

#include <algorithm>
#include <cmath>

#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/losses.hpp"
#include "tensor/assert.hpp"

namespace cnd::nn {

MlpClassifier::MlpClassifier(const MlpClassifierConfig& cfg, Rng& rng)
    : cfg_(cfg), opt_(cfg.lr), rng_(rng.split(0xC1A551F1E5ULL)) {
  require(cfg.input_dim > 0, "MlpClassifier: input_dim must be > 0");
  require(cfg.n_classes >= 2, "MlpClassifier: need >= 2 classes");
  net_.add(std::make_unique<Linear>(cfg.input_dim, cfg.hidden_dim, rng));
  net_.add(std::make_unique<ReLU>());
  net_.add(std::make_unique<Linear>(cfg.hidden_dim, cfg.hidden_dim, rng));
  net_.add(std::make_unique<ReLU>());
  net_.add(std::make_unique<Linear>(cfg.hidden_dim, cfg.n_classes, rng));
}

double MlpClassifier::fit(const Matrix& x, const std::vector<std::size_t>& y) {
  require(x.rows() == y.size(), "MlpClassifier::fit: label count mismatch");
  require(x.rows() > 0, "MlpClassifier::fit: empty training set");
  double last_epoch_loss = 0.0;
  for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    auto order = rng_.permutation(x.rows());
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size(); start += cfg_.batch_size) {
      const std::size_t end = std::min(start + cfg_.batch_size, order.size());
      std::vector<std::size_t> idx(order.begin() + static_cast<std::ptrdiff_t>(start),
                                   order.begin() + static_cast<std::ptrdiff_t>(end));
      Matrix xb = x.take_rows(idx);
      std::vector<std::size_t> yb(idx.size());
      for (std::size_t i = 0; i < idx.size(); ++i) yb[i] = y[idx[i]];

      Matrix logits = net_.forward(xb, /*train=*/true);
      LossGrad lg = softmax_cross_entropy(logits, yb);
      net_.backward(lg.grad);
      opt_.step(net_.params());
      loss_sum += lg.loss;
      ++batches;
    }
    last_epoch_loss = loss_sum / static_cast<double>(std::max<std::size_t>(batches, 1));
  }
  return last_epoch_loss;
}

std::vector<std::size_t> MlpClassifier::predict(const Matrix& x) {
  Matrix logits = net_.forward(x, /*train=*/false);
  std::vector<std::size_t> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    auto r = logits.row(i);
    out[i] = static_cast<std::size_t>(
        std::max_element(r.begin(), r.end()) - r.begin());
  }
  return out;
}

std::vector<double> MlpClassifier::predict_proba1(const Matrix& x) {
  require(cfg_.n_classes == 2, "predict_proba1: binary classifiers only");
  Matrix logits = net_.forward(x, /*train=*/false);
  std::vector<double> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double z0 = logits(i, 0);
    const double z1 = logits(i, 1);
    const double m = std::max(z0, z1);
    out[i] = std::exp(z1 - m) / (std::exp(z0 - m) + std::exp(z1 - m));
  }
  return out;
}

}  // namespace cnd::nn
