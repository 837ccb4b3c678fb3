// ACORN-style adaptive-trigger wrapper around CND-IDS.
//
// CND-IDS refits on every experience; when the stream has not drifted that
// spends a full CFE + PCA round to stand still (and risks needless
// forgetting). This wrapper scores each incoming training stream with the
// *current* model, feeds chunk-mean score ratios (relative to the model's
// own clean-window level) into a Page-Hinkley test, and only refits when
// the statistic alarms. The first experience always fits — there is no
// model to score with before it.
//
// Telemetry (docs/OBSERVABILITY.md): counters adaptive.updates_total /
// adaptive.skips_total / adaptive.drift_signals_total, gauge
// adaptive.ref_score_mean, one adaptive.gate event per experience. All obs
// calls sit outside the cnd-hot drift statistic (src/obs strings allocate).
//
// Threading: single-writer by design — all mutable state is confined to
// the experience-runner thread, so there are no mutexes to annotate
// (docs/STATIC_ANALYSIS.md, "Concurrency contracts"). Cross-thread use
// goes through serve::ScoringService snapshots, never a shared instance.
#pragma once

#include "core/cnd_ids.hpp"
#include "ml/drift_detector.hpp"

namespace cnd::core {

class AdaptiveCndIds final : public ContinualDetector {
 public:
  explicit AdaptiveCndIds(const CndIdsConfig& detector = {});

  std::string name() const override;
  void setup(const SetupContext& ctx) override;
  void observe_experience(const Matrix& x_train) override;
  std::vector<double> score(const Matrix& x_test) override;
  void score_into(const Matrix& x_test, std::vector<double>& out) override;

  bool supports_snapshot() const override { return true; }
  /// Inner CND-IDS scoring state plus the trigger's runtime statistics
  /// (reference level, Page-Hinkley state, gate counters); defined in
  /// src/io/detector_snapshot.cpp.
  void snapshot(std::ostream& os) const override;
  void restore(std::istream& is) override;

  std::size_t updates() const { return updates_; }
  std::size_t skips() const { return skips_; }
  std::size_t drift_signals() const { return drift_signals_; }
  const CndIds& detector() const { return detector_; }

 private:
  /// Refit on `x_train`, recalibrate the reference level and the
  /// Page-Hinkley baseline on the clean window.
  void refit(const Matrix& x_train);

  CndIds detector_;
  ml::PageHinkley ph_;
  // cnd-snapshot: skip(clean-window data, not model state — snapshots ship the model only)
  Matrix n_clean_;
  double ref_mean_ = 1.0;  ///< mean score on N_c under the current model.
  bool fitted_ = false;
  std::size_t updates_ = 0;
  std::size_t skips_ = 0;
  std::size_t drift_signals_ = 0;
};

}  // namespace cnd::core
