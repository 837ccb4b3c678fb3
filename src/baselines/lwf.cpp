#include "baselines/lwf.hpp"

#include <algorithm>
#include <limits>

#include "ml/elbow.hpp"
#include "nn/losses.hpp"
#include "tensor/assert.hpp"

namespace cnd::baselines {

namespace {

constexpr double kLambdaDistill = 0.5;  ///< LwF strength (old-task preservation).

}  // namespace

Lwf::Lwf(const LwfConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed), opt_(cfg.lr), km_({.k = 1}) {}

void Lwf::setup(const core::SetupContext& ctx) {
  require(!ctx.seed_x.empty(), "Lwf::setup: needs a labeled seed set");
  require(ctx.seed_x.rows() == ctx.seed_y.size(), "Lwf::setup: seed size mismatch");
  seed_x_ = ctx.seed_x;
  seed_y_ = ctx.seed_y;
}

void Lwf::observe_experience(const Matrix& x_train) {
  require(!seed_x_.empty(), "Lwf::observe_experience: setup() not called");
  if (!ae_.initialized()) {
    ae_ = nn::Autoencoder({.input_dim = x_train.cols(),
                           .hidden_dim = cfg_.hidden_dim,
                           .latent_dim = cfg_.latent_dim},
                          rng_);
  }

  for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    auto order = rng_.permutation(x_train.rows());
    for (std::size_t start = 0; start < order.size(); start += cfg_.batch_size) {
      const std::size_t end = std::min(start + cfg_.batch_size, order.size());
      if (end - start < 4) break;
      std::vector<std::size_t> idx(order.begin() + static_cast<std::ptrdiff_t>(start),
                                   order.begin() + static_cast<std::ptrdiff_t>(end));
      Matrix xb = x_train.take_rows(idx);

      ae_.zero_grad();
      Matrix h = ae_.encoder().forward(xb, /*train=*/true);
      Matrix grad_h(h.rows(), h.cols());

      // New-task objective: reconstruct the incoming stream.
      Matrix xhat = ae_.decoder().forward(h, /*train=*/true);
      nn::LossGrad r = nn::mse_loss(xhat, xb);
      Matrix grad_xhat = r.grad;

      // LwF: distill the previous model's responses on the *new* data into
      // the updated model (both latent and reconstruction heads).
      if (has_prev_) {
        Matrix h_prev = prev_encoder_.forward(xb, /*train=*/false);
        nn::LossGrad dl = nn::mse_loss(h, h_prev);
        dl.grad *= kLambdaDistill;
        grad_h += dl.grad;

        Matrix xhat_prev = prev_decoder_.forward(h_prev, /*train=*/false);
        nn::LossGrad dr = nn::mse_loss(xhat, xhat_prev);
        dr.grad *= kLambdaDistill;
        grad_xhat += dr.grad;
      }

      grad_h += ae_.decoder().backward(grad_xhat);
      ae_.encoder().backward(grad_h);
      opt_.step(ae_.params());
    }
  }

  // Re-cluster the latent space of the current stream.
  Matrix latent = ae_.encoder().forward(x_train, /*train=*/false);
  const std::size_t k = cfg_.k != 0 ? cfg_.k : ml::elbow_k(latent, rng_);
  km_ = ml::KMeans({.k = k});
  km_.fit(latent, rng_);

  // Label clusters from the seed set.
  Matrix seed_latent = ae_.encoder().forward(seed_x_, /*train=*/false);
  const auto a = km_.predict(seed_latent);
  std::vector<int> pos(k, 0), neg(k, 0);
  for (std::size_t i = 0; i < a.size(); ++i)
    (seed_y_[i] == 1 ? pos[a[i]] : neg[a[i]])++;
  cluster_label_.assign(k, -1);
  for (std::size_t c = 0; c < k; ++c)
    if (pos[c] + neg[c] > 0) cluster_label_[c] = pos[c] > neg[c] ? 1 : 0;
  for (std::size_t c = 0; c < k; ++c) {
    if (cluster_label_[c] != -1) continue;
    double best = std::numeric_limits<double>::infinity();
    int lbl = 0;
    for (std::size_t i = 0; i < seed_latent.rows(); ++i) {
      const double d = sq_dist(km_.centroids().row(c), seed_latent.row(i));
      if (d < best) {
        best = d;
        lbl = seed_y_[i];
      }
    }
    cluster_label_[c] = lbl;
  }

  prev_encoder_ = ae_.encoder();
  prev_decoder_ = ae_.decoder();
  has_prev_ = true;
}

std::vector<double> Lwf::score(const Matrix&) {
  throw std::logic_error("Lwf: cluster classifier has no anomaly scores");
}

std::vector<int> Lwf::predict(const Matrix& x_test) {
  require(km_.fitted(), "Lwf::predict: no experience observed yet");
  Matrix latent = ae_.encoder().forward(x_test, /*train=*/false);
  const auto a = km_.predict(latent);
  std::vector<int> out(x_test.rows());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = cluster_label_[a[i]];
  return out;
}

}  // namespace cnd::baselines
