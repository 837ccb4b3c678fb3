#include "core/cfe.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/cluster_separation.hpp"
#include "nn/losses.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "tensor/assert.hpp"

namespace cnd::core {

namespace {

constexpr double kMargin = 1.0;                ///< L_CS triplet margin m.
constexpr std::size_t kTripletsPerBatch = 64;  ///< L_CS triplets mined per batch.
constexpr std::size_t kReplayPerBatch = 32;    ///< kReplay: rehearsal rows per batch.
constexpr double kEwcStrength = 100.0;         ///< kEwc: penalty scale (x lambda_cl).
constexpr double kEwcDecay = 0.9;              ///< kEwc: online Fisher decay (gamma).

}  // namespace

Cfe::Cfe(const CfeConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      rng_(seed),
      opt_(cfg.lr),
      replay_(cfg.replay_capacity, seed ^ 0x5E5A11ULL) {
  require(cfg.lambda_r >= 0.0 && cfg.lambda_r <= 1.0, "Cfe: lambda_r out of [0,1]");
  require(cfg.lambda_cl >= 0.0 && cfg.lambda_cl <= 1.0, "Cfe: lambda_cl out of [0,1]");
  require(cfg.epochs > 0 && cfg.batch_size > 0, "Cfe: bad training schedule");
}

CfeFitStats Cfe::fit_experience(const Matrix& x_train, const Matrix& n_clean) {
  if (restored_)
    throw std::logic_error(
        "Cfe::fit_experience: this CFE was restored from a snapshot and is "
        "inference-only; train a fresh detector instead");
  require(x_train.rows() >= 8, "Cfe::fit_experience: too few rows");
  require(x_train.cols() == n_clean.cols(), "Cfe::fit_experience: feature mismatch");

  if (!ae_.initialized()) {
    ae_ = nn::Autoencoder(
        {.input_dim = x_train.cols(), .hidden_dim = cfg_.hidden_dim,
         .latent_dim = cfg_.latent_dim},
        rng_);
  }
  require(x_train.cols() == ae_.config().input_dim,
          "Cfe::fit_experience: input width changed between experiences");

  CfeFitStats stats;

  // Pseudo-labels for L_CS are computed once per experience in input space.
  std::vector<int> pseudo;
  if (cfg_.use_cs) {
    // Covers k-means and the elbow sweep when kmeans_k == 0.
    obs::ScopedTimer timer(obs::metrics(), "cnd.pseudo_label_ms");
    PseudoLabels pl =
        cluster_separation_labels(x_train, n_clean, cfg_.kmeans_k, rng_);
    pseudo = std::move(pl.labels);
    stats.pseudo_k = pl.k;
    stats.pseudo_anomalous = pl.n_anomalous;
    obs::metrics().gauge("cnd.pseudo_k").set(static_cast<double>(pl.k));
  }

  for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    auto order = rng_.permutation(x_train.rows());
    double ep_cs = 0.0, ep_r = 0.0, ep_cl = 0.0;
    std::size_t batches = 0;

    for (std::size_t start = 0; start < order.size(); start += cfg_.batch_size) {
      const std::size_t end = std::min(start + cfg_.batch_size, order.size());
      if (end - start < 4) break;  // skip degenerate tail batch
      std::vector<std::size_t> idx(order.begin() + static_cast<std::ptrdiff_t>(start),
                                   order.begin() + static_cast<std::ptrdiff_t>(end));
      Matrix xb = x_train.take_rows(idx);

      ae_.zero_grad();
      Matrix h = ae_.encoder().forward(xb, /*train=*/true);
      Matrix grad_h(h.rows(), h.cols());

      // L_CS: triplet margin on latent with pseudo-labels.
      if (cfg_.use_cs && !pseudo.empty()) {
        std::vector<int> yb(idx.size());
        for (std::size_t i = 0; i < idx.size(); ++i) yb[i] = pseudo[idx[i]];
        nn::LossGrad cs =
            nn::triplet_margin_loss(h, yb, kMargin, rng_, kTripletsPerBatch);
        grad_h += cs.grad;
        ep_cs += cs.loss;
      }

      // L_R: reconstruction MSE; its gradient reaches the encoder through
      // the decoder's backward pass.
      if (cfg_.lambda_r > 0.0) {
        Matrix xhat = ae_.decoder().forward(h, /*train=*/true);
        nn::LossGrad r = nn::mse_loss(xhat, xb);
        r.grad *= cfg_.lambda_r;
        grad_h += ae_.decoder().backward(r.grad);
        ep_r += r.loss;
      }

      // L_CL, snapshot mode: keep the current embedding close to what every
      // past encoder produced for the same inputs.
      if (cfg_.lambda_cl > 0.0 && cfg_.cl_mode == ClMode::kSnapshots &&
          !past_encoders_.empty()) {
        for (auto& past : past_encoders_) {
          Matrix h_past = past.forward(xb, /*train=*/false);
          nn::LossGrad cl = nn::mse_loss(h, h_past);
          cl.grad *= cfg_.lambda_cl;
          grad_h += cl.grad;
          ep_cl += cl.loss;
        }
      }

      ae_.encoder().backward(grad_h);

      // L_CL, replay mode: rehearse reconstruction of buffered past inputs
      // (a separate pass so gradients accumulate before the Adam step).
      if (cfg_.lambda_cl > 0.0 && cfg_.cl_mode == ClMode::kReplay &&
          !replay_.empty()) {
        Matrix xr = replay_.sample(kReplayPerBatch, rng_);
        Matrix hr = ae_.encoder().forward(xr, /*train=*/true);
        Matrix xr_hat = ae_.decoder().forward(hr, /*train=*/true);
        nn::LossGrad rl = nn::mse_loss(xr_hat, xr);
        rl.grad *= cfg_.lambda_cl;
        ep_cl += rl.loss;
        Matrix ghr = ae_.decoder().backward(rl.grad);
        ae_.encoder().backward(ghr);
      }

      // L_CL, EWC mode: Fisher-weighted quadratic pull toward the
      // consolidated anchor, added straight to the accumulated gradients.
      if (cfg_.lambda_cl > 0.0 && cfg_.cl_mode == ClMode::kEwc && !fisher_.empty()) {
        auto params = ae_.params();
        double penalty = 0.0;
        for (std::size_t k = 0; k < params.size(); ++k) {
          const double scale = cfg_.lambda_cl * kEwcStrength;
          for (std::size_t i = 0; i < params[k].value->rows(); ++i) {
            auto w = params[k].value->row(i);
            auto g = params[k].grad->row(i);
            auto fr = fisher_[k].row(i);
            auto ar = anchor_[k].row(i);
            for (std::size_t j = 0; j < params[k].value->cols(); ++j) {
              const double diff = w[j] - ar[j];
              g[j] += scale * fr[j] * diff;
              penalty += 0.5 * fr[j] * diff * diff;
            }
          }
        }
        ep_cl += penalty;
      }

      opt_.step(ae_.params());
      ++batches;
    }

    if (epoch + 1 == cfg_.epochs && batches > 0) {
      const double nb = static_cast<double>(batches);
      stats.loss_cs = ep_cs / nb;
      stats.loss_r = ep_r / nb;
      stats.loss_cl = ep_cl / nb;
      stats.loss_total =
          stats.loss_cs + cfg_.lambda_r * stats.loss_r + cfg_.lambda_cl * stats.loss_cl;
    }
  }

  switch (cfg_.cl_mode) {
    case ClMode::kSnapshots:
      // Snapshot the encoder for future experiences' L_CL (model state only
      // — no data is retained, matching the paper's storage argument).
      past_encoders_.push_back(ae_.encoder());
      if (cfg_.max_snapshots > 0 && past_encoders_.size() > cfg_.max_snapshots)
        past_encoders_.erase(past_encoders_.begin());
      break;
    case ClMode::kReplay:
      replay_.add(x_train);
      break;
    case ClMode::kEwc:
      accumulate_fisher(x_train);
      break;
  }
  ++experiences_seen_;
  return stats;
}

void Cfe::accumulate_fisher(const Matrix& x_train) {
  // Empirical Fisher diagonal of the reconstruction loss: mean squared
  // per-parameter gradient over mini-batches of this experience, folded
  // into the running (online EWC) estimate with decay gamma.
  auto params = ae_.params();
  std::vector<Matrix> sq(params.size());
  for (std::size_t k = 0; k < params.size(); ++k)
    sq[k] = Matrix(params[k].value->rows(), params[k].value->cols());

  const std::size_t n_batches =
      std::min<std::size_t>(8, std::max<std::size_t>(1, x_train.rows() / cfg_.batch_size));
  auto order = rng_.permutation(x_train.rows());
  for (std::size_t b = 0; b < n_batches; ++b) {
    const std::size_t start = b * cfg_.batch_size;
    const std::size_t end = std::min(start + cfg_.batch_size, order.size());
    if (end - start < 2) break;
    std::vector<std::size_t> idx(order.begin() + static_cast<std::ptrdiff_t>(start),
                                 order.begin() + static_cast<std::ptrdiff_t>(end));
    Matrix xb = x_train.take_rows(idx);
    ae_.zero_grad();
    Matrix h = ae_.encoder().forward(xb, true);
    Matrix xhat = ae_.decoder().forward(h, true);
    nn::LossGrad lg = nn::mse_loss(xhat, xb);
    ae_.encoder().backward(ae_.decoder().backward(lg.grad));
    for (std::size_t k = 0; k < params.size(); ++k)
      for (std::size_t i = 0; i < sq[k].rows(); ++i) {
        auto s = sq[k].row(i);
        auto g = params[k].grad->row(i);
        for (std::size_t j = 0; j < sq[k].cols(); ++j) s[j] += g[j] * g[j];
      }
  }
  ae_.zero_grad();

  const double inv = 1.0 / static_cast<double>(std::max<std::size_t>(n_batches, 1));
  if (fisher_.empty()) {
    fisher_.resize(params.size());
    anchor_.resize(params.size());
    for (std::size_t k = 0; k < params.size(); ++k)
      fisher_[k] = Matrix(params[k].value->rows(), params[k].value->cols());
  }
  for (std::size_t k = 0; k < params.size(); ++k) {
    for (std::size_t i = 0; i < fisher_[k].rows(); ++i) {
      auto f = fisher_[k].row(i);
      auto s = sq[k].row(i);
      for (std::size_t j = 0; j < fisher_[k].cols(); ++j)
        f[j] = kEwcDecay * f[j] + s[j] * inv;
    }
    anchor_[k] = *params[k].value;
  }
}

Matrix Cfe::encode(const Matrix& x) {
  require(ae_.initialized(), "Cfe::encode: no experience observed yet");
  return ae_.encoder().forward(x, /*train=*/false);
}

void Cfe::encode_into(const Matrix& x, Matrix& out) {
  require(ae_.initialized(), "Cfe::encode: no experience observed yet");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  ae_.encode_into(x, out);
}

void Cfe::restore_encoder(nn::Sequential encoder, std::size_t input_dim) {
  ae_.restore_encoder(std::move(encoder),
                      {.input_dim = input_dim,
                       .hidden_dim = cfg_.hidden_dim,
                       .latent_dim = cfg_.latent_dim});
  restored_ = true;
}

}  // namespace cnd::core
