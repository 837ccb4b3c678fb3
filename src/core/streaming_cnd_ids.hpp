// Streaming deployment wrapper around CND-IDS.
//
// The paper's protocol hands the detector whole experiences. A deployed
// monitor sees flows one mini-batch at a time and has no experience
// boundaries; this wrapper buffers the live stream, scores each batch
// immediately, feeds the mean batch score into a Page-Hinkley drift
// detector, and triggers a CND-IDS adaptation round (CFE fit + PCA refit)
// when drift is signaled OR the buffer reaches a size cap — whichever comes
// first. This is the "future-work" deployment mode the paper's streaming
// framing implies but never spells out.
//
// Threading: single-writer by design. All mutable state (buffer, drift
// statistic, model) is confined to the one thread driving process_batch /
// adapt; there are no mutexes to annotate (docs/STATIC_ANALYSIS.md,
// "Concurrency contracts"). Concurrent serving wraps a *snapshot* of this
// detector behind serve::ScoringService instead of sharing it.
#pragma once

#include <stdexcept>

#include "core/cnd_ids.hpp"
#include "ml/drift_detector.hpp"

namespace cnd::core {

struct StreamingConfig {
  CndIdsConfig detector;
  /// Adaptation triggers: whichever fires first.
  std::size_t max_buffer_rows = 2048;   ///< hard cap on buffered flows.
  std::size_t min_buffer_rows = 256;    ///< never adapt on less than this.
  double ph_delta = 0.02;               ///< Page-Hinkley tolerance.
  double ph_lambda = 8.0;               ///< Page-Hinkley alarm level.
  /// Label-free alarm threshold: peaks-over-threshold on the vouched clean
  /// window's scores, placed at this target false-alarm probability.
  double target_fpr = 0.01;

  /// Check every field (including the nested detector config); throws
  /// std::invalid_argument naming the offending field. Called by the
  /// StreamingCndIds constructor.
  void validate() const;
};

/// One processed batch: per-flow scores/verdicts plus adaptation telemetry.
struct StreamBatchResult {
  std::vector<double> scores;
  std::vector<int> verdicts;
  bool adapted = false;          ///< an adaptation round ran after this batch.
  bool drift_signal = false;     ///< Page-Hinkley fired on this batch.
  double threshold = 0.0;
};

class StreamingCndIds {
 public:
  explicit StreamingCndIds(const StreamingConfig& cfg = {});

  /// Provide the operator-vouched clean window; runs the first adaptation
  /// bootstrap so scoring works from the first batch (the clean window
  /// doubles as the first training stream).
  void bootstrap(const Matrix& n_clean);

  /// Score a batch of live flows, update drift state, maybe adapt.
  /// Thin wrapper over process_batch_into with fresh result storage.
  StreamBatchResult process_batch(const Matrix& batch);

  /// Same contract as process_batch, writing into a caller-owned result so
  /// a serving loop that reuses `out` keeps score/verdict storage across
  /// batches — zero heap allocations in steady state (fixed batch shape, no
  /// adaptation round). Calling before bootstrap() throws std::logic_error.
  void process_batch_into(const Matrix& batch, StreamBatchResult& out);

  std::size_t adaptations() const { return adaptations_; }
  std::size_t flows_seen() const { return flows_seen_; }
  std::size_t buffered() const {
    if (!ready_)
      throw std::logic_error("StreamingCndIds::buffered: bootstrap() not called");
    return buffer_.rows();
  }
  const CndIds& detector() const { return detector_; }

 private:
  void adapt();
  /// State/shape guards ahead of the hot core; std::logic_error before
  /// bootstrap(), std::invalid_argument on bad batches.
  void check_batch(const Matrix& batch) const;
  /// Telemetry + buffering + (maybe) the adaptation round after the hot
  /// core has filled `out`. `nonfinite` is the batch's count of flows
  /// alarmed for non-finite input; rows with a non-finite feature stay out
  /// of the buffer.
  void finish_batch(const Matrix& batch, double mean_score, std::size_t nonfinite,
                    StreamBatchResult& out);

  StreamingConfig cfg_;
  CndIds detector_;
  ml::PageHinkley ph_;
  Matrix n_clean_;
  Matrix buffer_;
  double threshold_ = 0.0;
  std::size_t adaptations_ = 0;
  std::size_t flows_seen_ = 0;
  bool ready_ = false;
};

}  // namespace cnd::core
