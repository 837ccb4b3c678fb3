// CND-IDS: the paper's full detector (Fig. 2 / Algorithm 1).
//
// Per experience: (i) train the CFE on the unlabeled stream, (ii) encode the
// clean-normal holdout N_c, (iii) fit the PCA novelty detector on the
// encoded N_c. Scoring encodes test rows and returns their PCA feature
// reconstruction error; the runner (or caller) thresholds the scores.
#pragma once

#include <memory>

#include "core/cfe.hpp"
#include "core/detector.hpp"
#include "ml/pca.hpp"

namespace cnd::core {

struct CndIdsConfig {
  CfeConfig cfe;
  ml::PcaConfig pca{.explained_variance = 0.95};  ///< paper: 95%.
  std::uint64_t seed = 1234;

  /// Check every field; throws std::invalid_argument naming the offending
  /// field. Called by the CndIds constructor, so a detector can only be
  /// built from a coherent config.
  void validate() const;
};

class CndIds final : public ContinualDetector {
 public:
  explicit CndIds(const CndIdsConfig& cfg = {});

  std::string name() const override;
  void setup(const SetupContext& ctx) override;
  void observe_experience(const Matrix& x_train) override;
  std::vector<double> score(const Matrix& x_test) override;

  /// Allocation-free scoring through the calling thread's scratch;
  /// bit-identical to score(). The serving replicas' hot path.
  void score_into(const Matrix& x_test, std::vector<double>& out) override;

  bool supports_snapshot() const override { return true; }
  /// Scoring state only (encoder + PCA moments); defined in
  /// src/io/detector_snapshot.cpp on the io::binary primitives.
  void snapshot(std::ostream& os) const override;
  /// Restored detectors are inference-only: observe_experience() throws
  /// std::logic_error afterwards (the CFE keeps no training state).
  void restore(std::istream& is) override;

  const Cfe& cfe() const { return cfe_; }
  const ml::Pca& pca() const { return pca_; }
  const CfeFitStats& last_fit_stats() const { return last_stats_; }

 private:
  CndIdsConfig cfg_;  // cnd-snapshot: skip(construction-time config — the restoring detector is built with it)
  Cfe cfe_;
  ml::Pca pca_;
  // cnd-snapshot: skip(clean-window data, not model state — snapshots ship the model only)
  Matrix n_clean_;
  CfeFitStats last_stats_;  // cnd-snapshot: skip(fit diagnostics — not part of the scoring function)
};

}  // namespace cnd::core
