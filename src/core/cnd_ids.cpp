#include "core/cnd_ids.hpp"

#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "tensor/assert.hpp"
#include "tensor/kernels.hpp"

namespace cnd::core {

std::vector<int> ContinualDetector::predict(const Matrix&) {
  throw std::logic_error(name() + ": predict() not implemented (score-based detector)");
}

// Generic adapter for detectors without an allocation-free scoring path.
// cnd-alloc-ok(default adapter copies one score vector through score())
void ContinualDetector::score_into(const Matrix& x_test, std::vector<double>& out) {
  out = score(x_test);
}

void ContinualDetector::snapshot(std::ostream&) const {
  throw std::logic_error(name() + ": snapshot() not supported");
}

void ContinualDetector::restore(std::istream&) {
  throw std::logic_error(name() + ": restore() not supported");
}

// cnd-throw-ok(config validation — runs once at construction/bootstrap, never per batch)
void CndIdsConfig::validate() const {
  require(cfe.hidden_dim > 0, "CndIdsConfig: cfe.hidden_dim must be > 0");
  require(cfe.latent_dim > 0, "CndIdsConfig: cfe.latent_dim must be > 0");
  require(cfe.lambda_r >= 0.0 && cfe.lambda_r <= 1.0,
          "CndIdsConfig: cfe.lambda_r out of [0,1]");
  require(cfe.lambda_cl >= 0.0 && cfe.lambda_cl <= 1.0,
          "CndIdsConfig: cfe.lambda_cl out of [0,1]");
  require(cfe.epochs > 0, "CndIdsConfig: cfe.epochs must be > 0");
  require(cfe.batch_size > 0, "CndIdsConfig: cfe.batch_size must be > 0");
  require(cfe.lr > 0.0, "CndIdsConfig: cfe.lr must be > 0");
  require(cfe.replay_capacity > 0,
          "CndIdsConfig: cfe.replay_capacity must be > 0");
  require(pca.explained_variance > 0.0 && pca.explained_variance <= 1.0,
          "CndIdsConfig: pca.explained_variance out of (0,1]");
}

CndIds::CndIds(const CndIdsConfig& cfg)
    : cfg_((cfg.validate(), cfg)), cfe_(cfg.cfe, cfg.seed), pca_(cfg.pca) {}

std::string CndIds::name() const {
  const bool r = cfg_.cfe.lambda_r > 0.0, cl = cfg_.cfe.lambda_cl > 0.0;
  std::string n = "CND-IDS";
  if (!cfg_.cfe.use_cs) n += " (w/o L_CS)";
  if (!r && !cl)
    n += " (w/o L_R and L_CL)";
  else if (!r)
    n += " (w/o L_R)";
  else if (!cl)
    n += " (w/o L_CL)";
  return n;
}

void CndIds::setup(const SetupContext& ctx) {
  require(ctx.n_clean.rows() >= 8, "CndIds::setup: N_c too small");
  n_clean_ = ctx.n_clean;  // Labeled seed deliberately unused: label-free method.
}

void CndIds::observe_experience(const Matrix& x_train) {
  require(!n_clean_.empty(), "CndIds::observe_experience: setup() not called");
  obs::MetricsRegistry& m = obs::metrics();
  {
    obs::ScopedTimer timer(m, "cnd.cfe_fit_ms");
    last_stats_ = cfe_.fit_experience(x_train, n_clean_);
  }
  {
    obs::ScopedTimer timer(m, "cnd.pca_fit_ms");
    pca_ = ml::Pca(cfg_.pca);
    pca_.fit(cfe_.encode(n_clean_));
  }
  m.counter("cnd.experiences_total").add(1);
  m.gauge("cnd.cfe_snapshots").set(static_cast<double>(cfe_.n_snapshots()));
  m.gauge("cnd.replay_rows").set(static_cast<double>(cfe_.replay_rows_stored()));
}

std::vector<double> CndIds::score(const Matrix& x_test) {
  require(pca_.fitted(), "CndIds::score: no experience observed yet");
  obs::ScopedTimer timer(obs::metrics(), "cnd.score_ms");
  obs::metrics().counter("cnd.rows_scored_total").add(x_test.rows());
  std::vector<double> s;
  score_into(x_test, s);
  return s;
}

// The serving replicas' scoring entry point: encode + FRE with every
// temporary in scratch owned by the calling thread, so steady-state batches
// of a fixed shape never touch the heap, across replica swaps too. A
// replica carries only its model: the one a process keeps per published
// version would otherwise each pin a batch-sized scratch. Same operation
// sequence as encode()+Pca::score(), hence bit-identical scores.
// cnd-hot
void CndIds::score_into(const Matrix& x_test, std::vector<double>& out) {
  require(pca_.fitted(), "CndIds::score: no experience observed yet");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  thread_local Matrix latent;
  thread_local Workspace ws;
  cfe_.encode_into(x_test, latent);
  pca_.score_into(latent, out, ws);
}

}  // namespace cnd::core
