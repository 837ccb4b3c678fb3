#include "baselines/adcn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/stats.hpp"
#include "ml/elbow.hpp"
#include "ml/kmeans.hpp"
#include "nn/losses.hpp"
#include "tensor/assert.hpp"

namespace cnd::baselines {

namespace {

constexpr double kLambdaCluster = 0.1;   ///< weight of the cluster-pull loss.
constexpr double kLambdaDistill = 0.1;   ///< latent anchor against previous model.
constexpr double kSpawnQuantile = 0.98;  ///< farther than this spawns new clusters.
constexpr std::size_t kMaxClusters = 64;

}  // namespace

Adcn::Adcn(const AdcnConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed), opt_(cfg.lr) {}

void Adcn::setup(const core::SetupContext& ctx) {
  require(!ctx.seed_x.empty(), "Adcn::setup: needs a labeled seed set");
  require(ctx.seed_x.rows() == ctx.seed_y.size(), "Adcn::setup: seed size mismatch");
  seed_x_ = ctx.seed_x;
  seed_y_ = ctx.seed_y;
}

std::vector<std::size_t> Adcn::assign(const Matrix& latent) const {
  std::vector<std::size_t> out(latent.rows());
  for (std::size_t i = 0; i < latent.rows(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t arg = 0;
    for (std::size_t c = 0; c < centroids_.rows(); ++c) {
      const double d = sq_dist(latent.row(i), centroids_.row(c));
      if (d < best) {
        best = d;
        arg = c;
      }
    }
    out[i] = arg;
  }
  return out;
}

void Adcn::observe_experience(const Matrix& x_train) {
  require(!seed_x_.empty(), "Adcn::observe_experience: setup() not called");
  if (!ae_.initialized()) {
    ae_ = nn::Autoencoder({.input_dim = x_train.cols(),
                           .hidden_dim = cfg_.hidden_dim,
                           .latent_dim = cfg_.latent_dim},
                          rng_);
  }

  // Train the AE: reconstruction + cluster pull + latent distillation.
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

      Matrix xhat = ae_.decoder().forward(h, /*train=*/true);
      nn::LossGrad r = nn::mse_loss(xhat, xb);
      grad_h += ae_.decoder().backward(r.grad);

      // Cluster pull: move latents toward their nearest centroid (deep
      // clustering term); only once centroids exist.
      if (!centroids_.empty()) {
        const auto a = assign(h);
        Matrix target = h;
        for (std::size_t i = 0; i < h.rows(); ++i) target.set_row(i, centroids_.row(a[i]));
        nn::LossGrad cl = nn::mse_loss(h, target);
        cl.grad *= kLambdaCluster;
        grad_h += cl.grad;
      }

      if (has_prev_) {
        Matrix h_prev = prev_encoder_.forward(xb, /*train=*/false);
        nn::LossGrad d = nn::mse_loss(h, h_prev);
        d.grad *= kLambdaDistill;
        grad_h += d.grad;
      }

      ae_.encoder().backward(grad_h);
      opt_.step(ae_.params());
    }
  }

  // Cluster maintenance in the new latent space.
  Matrix latent = ae_.encoder().forward(x_train, /*train=*/false);
  if (centroids_.empty()) {
    const std::size_t k =
        cfg_.init_k != 0 ? cfg_.init_k : ml::elbow_k(latent, rng_);
    ml::KMeans km({.k = k});
    km.fit(latent, rng_);
    centroids_ = km.centroids();
  } else {
    // Autonomous growth: points far from every centroid spawn new clusters.
    std::vector<double> dmin(latent.rows());
    for (std::size_t i = 0; i < latent.rows(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < centroids_.rows(); ++c)
        best = std::min(best, sq_dist(latent.row(i), centroids_.row(c)));
      dmin[i] = std::sqrt(best);
    }
    const double cut = linalg::quantile(dmin, kSpawnQuantile);
    std::vector<std::size_t> far;
    for (std::size_t i = 0; i < dmin.size(); ++i)
      if (dmin[i] > cut) far.push_back(i);
    if (far.size() >= 8 && centroids_.rows() < kMaxClusters) {
      const std::size_t spawn = std::min<std::size_t>(
          {2, kMaxClusters - centroids_.rows(), far.size() / 4});
      if (spawn >= 1) {
        ml::KMeans km({.k = spawn});
        Matrix far_latent = latent.take_rows(far);
        km.fit(far_latent, rng_);
        centroids_.append_rows(km.centroids());
      }
    }
    // One refinement pass: recenter each centroid on its assigned points.
    const auto a = assign(latent);
    Matrix sums(centroids_.rows(), centroids_.cols());
    std::vector<std::size_t> counts(centroids_.rows(), 0);
    for (std::size_t i = 0; i < latent.rows(); ++i) {
      auto s = sums.row(a[i]);
      auto l = latent.row(i);
      for (std::size_t j = 0; j < latent.cols(); ++j) s[j] += l[j];
      ++counts[a[i]];
    }
    for (std::size_t c = 0; c < centroids_.rows(); ++c) {
      if (counts[c] == 0) continue;
      auto s = sums.row(c);
      auto ct = centroids_.row(c);
      for (std::size_t j = 0; j < centroids_.cols(); ++j)
        ct[j] = s[j] / static_cast<double>(counts[c]);
    }
  }

  relabel_clusters();
  prev_encoder_ = ae_.encoder();
  has_prev_ = true;
}

void Adcn::relabel_clusters() {
  // Majority label of the seed points assigned to each cluster; clusters
  // with no seed points inherit the label of the nearest seed point's
  // cluster-free vote (label of the single nearest seed row).
  Matrix seed_latent = ae_.encoder().forward(seed_x_, /*train=*/false);
  const auto a = assign(seed_latent);
  std::vector<int> pos(centroids_.rows(), 0), neg(centroids_.rows(), 0);
  for (std::size_t i = 0; i < a.size(); ++i)
    (seed_y_[i] == 1 ? pos[a[i]] : neg[a[i]])++;

  cluster_label_.assign(centroids_.rows(), -1);
  for (std::size_t c = 0; c < centroids_.rows(); ++c)
    if (pos[c] + neg[c] > 0) cluster_label_[c] = pos[c] > neg[c] ? 1 : 0;

  for (std::size_t c = 0; c < centroids_.rows(); ++c) {
    if (cluster_label_[c] != -1) continue;
    double best = std::numeric_limits<double>::infinity();
    int lbl = 0;
    for (std::size_t i = 0; i < seed_latent.rows(); ++i) {
      const double d = sq_dist(centroids_.row(c), seed_latent.row(i));
      if (d < best) {
        best = d;
        lbl = seed_y_[i];
      }
    }
    cluster_label_[c] = lbl;
  }
}

std::vector<double> Adcn::score(const Matrix&) {
  throw std::logic_error("Adcn: cluster classifier has no anomaly scores");
}

std::vector<int> Adcn::predict(const Matrix& x_test) {
  require(!centroids_.empty(), "Adcn::predict: no experience observed yet");
  Matrix latent = ae_.encoder().forward(x_test, /*train=*/false);
  const auto a = assign(latent);
  std::vector<int> out(x_test.rows());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = cluster_label_[a[i]];
  return out;
}

}  // namespace cnd::baselines
