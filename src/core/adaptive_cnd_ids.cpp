#include "core/adaptive_cnd_ids.hpp"

#include <algorithm>
#include <span>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "tensor/assert.hpp"

namespace cnd::core {

namespace {

// The drift gate: Page-Hinkley tolerance on the score ratio, its alarm
// level, and the stream chunk size (one PH observation per chunk-mean score
// ratio).
constexpr double kPhDelta = 0.1;
constexpr double kPhLambda = 3.0;
constexpr std::size_t kChunkRows = 64;

// Feed chunk-mean score ratios into the Page-Hinkley test; true when any
// chunk alarms. The adaptive streaming gate: pure arithmetic over the
// score vector, runs on every incoming training stream.
// cnd-hot
bool drift_gate(ml::PageHinkley& ph, std::span<const double> scores,
                std::size_t chunk, double ref_mean) {
  bool drift = false;
  for (std::size_t lo = 0; lo < scores.size(); lo += chunk) {
    const std::size_t hi = std::min(scores.size(), lo + chunk);
    double mean = 0.0;
    for (std::size_t i = lo; i < hi; ++i) mean += scores[i];
    mean /= static_cast<double>(hi - lo);
    drift = ph.update(mean / ref_mean) || drift;
  }
  return drift;
}

double mean_of(std::span<const double> v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

}  // namespace

AdaptiveCndIds::AdaptiveCndIds(const CndIdsConfig& detector)
    : detector_(detector), ph_(kPhDelta, kPhLambda, /*min_samples=*/4) {}

std::string AdaptiveCndIds::name() const { return "Adaptive"; }

void AdaptiveCndIds::setup(const SetupContext& ctx) {
  n_clean_ = ctx.n_clean;
  detector_.setup(ctx);
}

void AdaptiveCndIds::refit(const Matrix& x_train) {
  detector_.observe_experience(x_train);
  // Recalibrate: the reference level is the adapted model's mean score on
  // the vouched clean window, and the Page-Hinkley baseline is re-anchored
  // by feeding it the clean window's own chunk ratios (~1.0). A later
  // stream that sits uniformly above that level then alarms even though
  // the test never saw the shift happen mid-stream.
  const std::vector<double> clean_scores = detector_.score(n_clean_);
  ref_mean_ = std::max(mean_of(clean_scores), 1e-12);
  ph_.reset();
  const std::size_t cal_chunk = std::max<std::size_t>(
      1, std::min(kChunkRows, clean_scores.size() / 4));
  (void)drift_gate(ph_, clean_scores, cal_chunk, ref_mean_);
  ++updates_;
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("adaptive.updates_total").add(1);
  m.gauge("adaptive.ref_score_mean").set(ref_mean_);
  obs::events().emit("adaptive.update", {{"round", updates_},
                                         {"train_rows", x_train.rows()},
                                         {"ref_score_mean", ref_mean_}});
}

void AdaptiveCndIds::observe_experience(const Matrix& x_train) {
  require(x_train.rows() > 0, "AdaptiveCndIds: empty training stream");
  if (!fitted_) {
    // No model to score the stream with yet: the first experience is the
    // bootstrap fit, exactly like plain CND-IDS.
    refit(x_train);
    fitted_ = true;
    return;
  }
  const std::vector<double> scores = detector_.score(x_train);
  const double mean_ratio = mean_of(scores) / ref_mean_;
  const bool drift = drift_gate(ph_, scores, kChunkRows, ref_mean_);
  obs::MetricsRegistry& m = obs::metrics();
  obs::events().emit("adaptive.gate", {{"stream_rows", x_train.rows()},
                                       {"mean_ratio", mean_ratio},
                                       {"drift", drift ? 1 : 0}});
  if (drift) {
    ++drift_signals_;
    m.counter("adaptive.drift_signals_total").add(1);
    refit(x_train);
  } else {
    ++skips_;
    m.counter("adaptive.skips_total").add(1);
  }
}

std::vector<double> AdaptiveCndIds::score(const Matrix& x_test) {
  return detector_.score(x_test);
}

// Pure delegation to the inner detector's allocation-free path.
// cnd-hot
void AdaptiveCndIds::score_into(const Matrix& x_test, std::vector<double>& out) {
  detector_.score_into(x_test, out);
}

}  // namespace cnd::core
