#include "serve/service.hpp"

#include <stdexcept>

#include "eval/robust_threshold.hpp"
#include "eval/threshold.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "tensor/assert.hpp"
#include "tensor/check.hpp"

namespace cnd::serve {

// cnd-throw-ok(config validation — runs once at construction/bootstrap, never per batch)
void ServiceConfig::validate() const {
  require(!detector.empty(), "ServiceConfig: detector name is empty");
  require(shards >= 1, "ServiceConfig: shards must be >= 1");
  require(queue_capacity >= 1, "ServiceConfig: queue_capacity must be >= 1");
  require(target_fpr > 0.0 && target_fpr < 0.05,
          "ServiceConfig: target_fpr out of (0, 0.05)");
}

ScoringService::ScoringService(const ServiceConfig& cfg)
    : cfg_((cfg.validate(), cfg)), queue_(cfg.queue_capacity) {}

ScoringService::~ScoringService() { shutdown(); }

void ScoringService::bootstrap(const Matrix& n_clean) {
  if (trainer_)
    throw std::logic_error("ScoringService::bootstrap: already bootstrapped");
  require(n_clean.rows() >= 32, "ScoringService::bootstrap: clean window too small");
  // The clean window is fitted, not scored: a non-finite feature in it
  // would poison the PCA covariance instead of failing closed.
  for (std::size_t i = 0; i < n_clean.rows(); ++i)
    if (!check::all_finite(n_clean.row(i)))
      throw std::invalid_argument("ScoringService::bootstrap: clean window row " +
                                  std::to_string(i) + " has a non-finite feature");
  n_clean_ = n_clean;
  trainer_ = core::make_detector(cfg_.detector, cfg_.detector_cfg);
  if (!trainer_->supports_snapshot())
    throw std::invalid_argument("ScoringService: " + cfg_.detector +
                                " does not support snapshots and cannot serve");
  Matrix seed_x;
  std::vector<int> seed_y;
  trainer_->setup(core::SetupContext{n_clean_, seed_x, seed_y});
  // Bootstrap round: the clean window doubles as the first training stream.
  trainer_->observe_experience(n_clean_);
  calibrate();
  publish();

  running_ = true;
  workers_.reserve(cfg_.shards);
  for (std::size_t s = 0; s < cfg_.shards; ++s)
    workers_.emplace_back(&ScoringService::worker_loop, this);

  obs::metrics().gauge("serve.threshold").set(threshold_);
  obs::metrics().gauge("serve.shards").set(static_cast<double>(cfg_.shards));
  obs::events().emit("serve.bootstrap", {{"clean_rows", n_clean.rows()},
                                         {"shards", cfg_.shards},
                                         {"threshold", threshold_}});
}

void ScoringService::calibrate() {
  threshold_ = eval::pot_threshold(
      trainer_->score(n_clean_),
      {.tail_quantile = 0.9, .target_prob = cfg_.target_fpr});
}

void ScoringService::publish() {
  ++version_;
  artifact_ = make_artifact(version_, cfg_.detector, threshold_, *trainer_);
  obs::metrics().gauge("serve.artifact_version").set(static_cast<double>(version_));
}

bool ScoringService::try_submit(const Matrix& batch) {
  if (!running_)
    throw std::logic_error(
        "ScoringService::try_submit: bootstrap() not called (or the service "
        "was shut down)");
  require(batch.rows() > 0, "ScoringService::try_submit: empty batch");
  require(batch.cols() == n_clean_.cols(),
          "ScoringService::try_submit: batch width differs from the clean window");

  results_.push_back(BatchResult{});
  BatchResult& slot = results_.back();
  slot.input = batch;
  slot.artifact = artifact_;
  slot.first_flow = flows_admitted_;
  {
    runtime::MutexLock lock(pending_mu_);
    ++pending_;
  }
  if (!queue_.try_push(&slot)) {
    {
      runtime::MutexLock lock(pending_mu_);
      --pending_;
    }
    // No worker ever saw the slot; dropping it keeps results() = admitted
    // batches exactly.
    results_.pop_back();
    ++rejected_;
    obs::metrics().counter("serve.rejected_total").add(1);
    return false;
  }
  flows_admitted_ += batch.rows();
  obs::metrics().gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
  maybe_adapt(batch);
  return true;
}

void ScoringService::maybe_adapt(const Matrix& batch) {
  if (cfg_.adapt_interval_flows == 0) return;
  // Non-finite rows are alarmed by the shards and never trained on; the
  // round boundary still counts them, as admitted flows.
  eval::append_finite_rows(adapt_buffer_, batch);
  const std::uint64_t rounds_due = flows_admitted_ / cfg_.adapt_interval_flows;
  if (rounds_due <= adaptations_) return;

  const std::size_t buffer_rows = adapt_buffer_.rows();
  obs::ScopedTimer timer(obs::metrics(), "serve.adaptation_ms");
  // A window of only non-finite rows leaves nothing to train on.
  if (buffer_rows > 0) trainer_->observe_experience(adapt_buffer_);
  calibrate();
  adapt_buffer_ = Matrix();
  publish();
  ++adaptations_;
  const double duration_ms = timer.stop_ms();
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("serve.adaptations_total").add(1);
  m.gauge("serve.threshold").set(threshold_);
  obs::events().emit("serve.adaptation", {{"round", adaptations_},
                                          {"buffer_rows", buffer_rows},
                                          {"version", version_},
                                          {"threshold", threshold_},
                                          {"duration_ms", duration_ms}});
}

namespace {

// The serving hot loop: score the batch and apply the artifact's threshold
// through the fail-closed verdict rule, all through slot-owned storage —
// steady state (fixed batch shape, no swap) never touches the heap, takes no
// lock, and never sleeps. Returns the batch's count of non-finite flows.
// cnd-hot cnd-wait-free
std::size_t score_slot(core::ContinualDetector& replica, BatchResult& slot) {
  replica.score_into(slot.input, slot.scores);
  return eval::verdicts_into(slot.input, slot.scores, slot.artifact->threshold,
                             slot.verdicts);
}

}  // namespace

void ScoringService::worker_loop() {
  std::unique_ptr<core::ContinualDetector> replica;
  std::uint64_t local_version = 0;
  obs::MetricsRegistry& m = obs::metrics();
  // Cache the handles: the loop body must not repeat name lookups.
  obs::Histogram& score_ms = m.histogram("serve.score_ms");
  obs::Counter& batches = m.counter("serve.batches_total");
  obs::Counter& flows = m.counter("serve.flows_total");
  obs::Counter& swaps = m.counter("serve.swaps_total");
  obs::Counter& nonfinite = m.counter("serve.nonfinite_total");

  while (auto slot = queue_.pop()) {
    BatchResult& b = **slot;
    if (!replica || b.artifact->version != local_version) {
      // Hot swap: build the new replica, then exchange wholesale. The old
      // model keeps scoring nothing — it is destroyed, never mutated.
      replica = restore_replica(*b.artifact, cfg_.detector_cfg);
      local_version = b.artifact->version;
      swaps_.fetch_add(1, std::memory_order_relaxed);
      swaps.add(1);
    }
    {
      obs::ScopedTimer timer(score_ms);
      nonfinite.add(score_slot(*replica, b));
    }
    batches.add(1);
    flows.add(b.scores.size());
    b.input = Matrix();
    {
      runtime::MutexLock lock(pending_mu_);
      --pending_;
      if (pending_ == 0) drained_cv_.notify_all();
    }
  }
}

void ScoringService::drain() {
  runtime::MutexLock lock(pending_mu_);
  while (pending_ != 0) drained_cv_.wait(lock);
}

void ScoringService::shutdown() {
  if (!running_) return;
  queue_.close();
  for (auto& w : workers_) w.join();
  workers_.clear();
  running_ = false;
}

}  // namespace cnd::serve
