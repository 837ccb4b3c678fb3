// Per-layer measurements of the traced run (README.md, "Per-layer metrics").
#include <algorithm>

#include "eval/metrics.hpp"
#include "eval/robust_threshold.hpp"
#include "eval/threshold.hpp"
#include "linalg/eigen.hpp"
#include "linalg/stats.hpp"
#include "ml/elbow.hpp"
#include "ml/kmeans.hpp"
#include "nn/autoencoder.hpp"
#include "nn/losses.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace cnd::perfbench {

void probe_cnd_layers(core::CndIds& det, const core::CndIdsConfig& cfg,
                      const Matrix& batch, const Matrix& clean,
                      const Matrix& train_stream, std::uint64_t seed, Outcome& out) {
  // Scoring: score_into = encoder forward_into + Pca::score_into.
  std::vector<double> scores;
  out.layer("core.score_batch_ms", time_ms([&] { det.score_into(batch, scores); }), "ms");
  nn::Sequential encoder = det.cfe().autoencoder().encoder_copy();
  Matrix latent;
  out.layer("nn.encoder_forward_ms",
            time_ms([&] { encoder.forward_into(batch, latent, false); }), "ms");
  Workspace ws;
  out.layer("ml.pca_fre_ms",
            time_ms([&] { det.pca().score_into(latent, scores, ws); }), "ms");
  const double d = static_cast<double>(batch.cols());
  const double h = static_cast<double>(cfg.cfe.hidden_dim);
  const double l = static_cast<double>(cfg.cfe.latent_dim);
  const double k = static_cast<double>(det.pca().n_components());
  // Multiply-adds of the two encoder GEMMs and the PCA project/back-project.
  out.layer("nn.flops_per_flow", 2.0 * (d * h + h * l) + 4.0 * l * k, "FLOP");
  out.layer("ml.pca_components", k, "count");

  // Training: one CFE mini-batch (encoder+decoder forward, MSE, backward,
  // Adam step) at the workload's shapes.
  Rng rng(seed);
  nn::Autoencoder ae({.input_dim = batch.cols(), .hidden_dim = cfg.cfe.hidden_dim,
                      .latent_dim = cfg.cfe.latent_dim},
                     rng);
  nn::Adam adam(cfg.cfe.lr);
  std::vector<std::size_t> rows(std::min(cfg.cfe.batch_size, train_stream.rows()));
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  const Matrix xb = train_stream.take_rows(rows);
  out.layer("nn.train_batch_ms", time_ms([&] {
              ae.zero_grad();
              Matrix hb = ae.encoder().forward(xb, true);
              Matrix xhat = ae.decoder().forward(hb, true);
              nn::LossGrad r = nn::mse_loss(xhat, xb);
              ae.encoder().backward(ae.decoder().backward(r.grad));
              adam.step(ae.params());
            }),
            "ms");

  // The eigensolve inside Pca::fit, on the covariance of the encoded clean
  // window the detector fits its PCA on.
  const Matrix cov = linalg::covariance(encoder.forward(clean, false));
  out.layer("linalg.eigen_ms", time_ms([&] { linalg::eigen_symmetric(cov); }, 0.0, 1), "ms");

  // Pseudo-labelling on the workload's own training stream; the elbow sweep
  // runs only when the detector picks K itself.
  if (cfg.cfe.kmeans_k == 0)
    out.layer("ml.elbow_ms", time_ms([&] {
                Rng r(seed);
                ml::elbow_k(train_stream, r);
              }, 0.0, 1),
              "ms");
  const std::size_t kk = cfg.cfe.kmeans_k > 0 ? cfg.cfe.kmeans_k : det.last_fit_stats().pseudo_k;
  out.layer("ml.kmeans_fit_ms", time_ms([&] {
              Rng r(seed);
              ml::KMeans km({.k = std::max<std::size_t>(kk, 2)});
              km.fit(train_stream, r);
            }),
            "ms");
}

void probe_eval(const std::vector<double>& scores, const std::vector<int>& labels,
                const std::vector<double>& calibration, Outcome& out) {
  out.layer("eval.best_f_ms", time_ms([&] { eval::best_f_threshold(scores, labels); }), "ms");
  out.layer("eval.pr_auc_ms", time_ms([&] { eval::pr_auc(scores, labels); }), "ms");
  out.layer("eval.pot_threshold_ms", time_ms([&] {
              eval::pot_threshold(calibration, {.tail_quantile = 0.9, .target_prob = 0.01});
            }),
            "ms");
}

void read_program_timers(Outcome& out) {
  obs::MetricsRegistry& m = obs::metrics();
  auto mean_ms = [&](const char* name) {
    const obs::Histogram& h = m.histogram(name);
    return h.count() == 0 ? 0.0 : h.sum() / static_cast<double>(h.count());
  };
  out.layer("core.cfe_fit_ms", mean_ms("cnd.cfe_fit_ms"), "ms");
  out.layer("core.pseudo_label_ms", mean_ms("cnd.pseudo_label_ms"), "ms");
  out.layer("ml.pca_fit_ms", mean_ms("cnd.pca_fit_ms"), "ms");
  out.layer("core.pseudo_k", m.gauge("cnd.pseudo_k").value(), "count");
}

void summarize_trace(const Tracer& tracer, Clock::time_point from,
                     Clock::time_point to, Outcome& out) {
  const double wall_ms = ms_between(from, to);
  std::size_t spans = 0;
  for (const auto& [name, t] : tracer.totals(from, to)) spans += t.count;
  out.layer("trace.cover_frac", tracer.top_level_ms(from, to) / wall_ms, "ratio");
  out.layer("trace.spans", static_cast<double>(spans), "count");
  out.layer("trace.overhead_frac",
            static_cast<double>(spans) * Tracer::span_cost_ns() * 1e-6 / wall_ms, "ratio");
  std::string dominant;
  double best = -1.0;
  for (const auto& [layer, self_ms] : tracer.layer_self_ms(from, to)) {
    out.note("self_ms." + layer, self_ms);
    if (self_ms > best) {
      best = self_ms;
      dominant = layer;
    }
  }
  out.layer("trace.dominant_self_frac", best / wall_ms, "ratio");
  out.note("dominant_layer", dominant);
  out.note("traced_wall_ms", wall_ms);
}

}  // namespace cnd::perfbench
