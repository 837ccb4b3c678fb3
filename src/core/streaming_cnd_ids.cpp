#include "core/streaming_cnd_ids.hpp"

#include <stdexcept>

#include "eval/robust_threshold.hpp"
#include "eval/threshold.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "tensor/assert.hpp"

namespace cnd::core {

// cnd-throw-ok(config validation — runs once at construction/bootstrap, never per batch)
void StreamingConfig::validate() const {
  // Surface nested detector-config errors with a "detector." prefix so the
  // caller can tell which layer rejected the value.
  try {
    detector.validate();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("StreamingConfig: detector." +
                                std::string(e.what()));
  }
  require(min_buffer_rows >= 32,
          "StreamingConfig: min_buffer_rows must be >= 32");
  require(max_buffer_rows >= min_buffer_rows,
          "StreamingConfig: max_buffer_rows < min_buffer_rows");
  require(ph_delta >= 0.0, "StreamingConfig: ph_delta must be >= 0");
  require(ph_lambda > 0.0, "StreamingConfig: ph_lambda must be > 0");
  require(target_fpr > 0.0 && target_fpr < 0.05,
          "StreamingConfig: target_fpr out of (0, 0.05)");
}

StreamingCndIds::StreamingCndIds(const StreamingConfig& cfg)
    : cfg_((cfg.validate(), cfg)),
      detector_(cfg.detector),
      ph_(cfg.ph_delta, cfg.ph_lambda, /*min_samples=*/8) {}

void StreamingCndIds::bootstrap(const Matrix& n_clean) {
  require(n_clean.rows() >= 32, "StreamingCndIds::bootstrap: clean window too small");
  n_clean_ = n_clean;
  Matrix seed_x;
  std::vector<int> seed_y;
  detector_.setup(SetupContext{n_clean_, seed_x, seed_y});
  // Bootstrap round: the clean window doubles as the first "stream".
  detector_.observe_experience(n_clean_);
  threshold_ = eval::pot_threshold(
      detector_.score(n_clean_), {.tail_quantile = 0.9, .target_prob = cfg_.target_fpr});
  ready_ = true;
  obs::metrics().gauge("stream.threshold").set(threshold_);
  obs::events().emit("stream.bootstrap",
                     {{"clean_rows", n_clean.rows()}, {"threshold", threshold_}});
}

void StreamingCndIds::adapt() {
  const std::size_t buffer_rows = buffer_.rows();
  obs::ScopedTimer timer(obs::metrics(), "stream.adaptation_ms");
  detector_.observe_experience(buffer_);
  // Recalibrate the alarm level on the vouched clean window under the
  // freshly adapted encoder. Calibrating on the live buffer instead would
  // break whenever an attack wave dominates it; N_c is the only data whose
  // label the operator actually knows.
  threshold_ = eval::pot_threshold(
      detector_.score(n_clean_), {.tail_quantile = 0.9, .target_prob = cfg_.target_fpr});
  buffer_ = Matrix();
  ph_.reset();
  ++adaptations_;
  const double duration_ms = timer.stop_ms();
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("stream.adaptations_total").add(1);
  m.gauge("stream.threshold").set(threshold_);
  obs::events().emit("stream.adaptation", {{"round", adaptations_},
                                           {"buffer_rows", buffer_rows},
                                           {"threshold", threshold_},
                                           {"duration_ms", duration_ms}});
}

StreamBatchResult StreamingCndIds::process_batch(const Matrix& batch) {
  StreamBatchResult res;
  process_batch_into(batch, res);
  return res;
}

// cnd-alloc-ok(the column-mismatch diagnostic builds a message string eagerly)
void StreamingCndIds::check_batch(const Matrix& batch) const {
  if (!ready_)
    throw std::logic_error(
        "StreamingCndIds::process_batch: bootstrap() not called — the "
        "detector has no model or threshold to score with");
  require(batch.rows() > 0, "StreamingCndIds::process_batch: empty batch");
  require(batch.cols() == n_clean_.cols(),
          "StreamingCndIds::process_batch: batch has " +
              std::to_string(batch.cols()) + " columns, bootstrap window had " +
              std::to_string(n_clean_.cols()));
}

// Hot serving core: score + verdicts + the drift statistic, all through
// caller-owned storage. Guards, telemetry, and the (allocating by design)
// adaptation round sit behind the two barrier helpers.
// cnd-hot
void StreamingCndIds::process_batch_into(const Matrix& batch,
                                         StreamBatchResult& out) {
  check_batch(batch);
  detector_.score_into(batch, out.scores);
  out.threshold = threshold_;
  const std::size_t nonfinite =
      eval::verdicts_into(batch, out.scores, threshold_, out.verdicts);
  out.adapted = false;
  flows_seen_ += batch.rows();

  // Drift statistic: mean score of the batch's finite flows. A drifting
  // normal population raises the mean even when no attack wave is in
  // progress; one non-finite flow would poison it.
  const std::size_t d = batch.cols();
  double mean = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < out.scores.size(); ++i) {
    if (nonfinite != 0 &&
        !eval::finite_flow({batch.data() + i * d, d}, out.scores[i]))
      continue;
    mean += out.scores[i];
    ++n;
  }
  if (n > 0) mean /= static_cast<double>(n);
  out.drift_signal = n > 0 && ph_.update(mean);

  finish_batch(batch, mean, nonfinite, out);
}

// cnd-alloc-ok(telemetry name strings, the stream buffer, and the adaptation round allocate by design)
void StreamingCndIds::finish_batch(const Matrix& batch, double mean_score,
                                   std::size_t nonfinite, StreamBatchResult& out) {
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("stream.batches_total").add(1);
  m.counter("stream.flows_total").add(batch.rows());
  m.counter("stream.nonfinite_total").add(nonfinite);
  if (out.drift_signal) {
    m.counter("stream.drift_signals_total").add(1);
    obs::events().emit("stream.drift",
                       {{"flows_seen", flows_seen_}, {"mean_score", mean_score}});
  }

  eval::append_finite_rows(buffer_, batch);
  const bool buffer_full = buffer_.rows() >= cfg_.max_buffer_rows;
  const bool can_adapt = buffer_.rows() >= cfg_.min_buffer_rows;
  if ((out.drift_signal && can_adapt) || buffer_full) {
    adapt();
    out.adapted = true;
  }
  m.gauge("stream.buffer_rows").set(static_cast<double>(buffer_.rows()));
}

}  // namespace cnd::core
