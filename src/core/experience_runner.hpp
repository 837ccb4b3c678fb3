// Drives a ContinualDetector through the paper's evaluation protocol.
//
// After training on each experience the detector is evaluated on the test
// split of *every* experience, filling the R[train, test] matrices for F1
// (Best-F thresholded per test set, as in the paper) and PR-AUC
// (score-based detectors only). Also records fit and per-sample inference
// time for the Table IV overhead analysis.
#pragma once

#include <cstdint>

#include "core/detector.hpp"
#include "data/experiences.hpp"
#include "eval/cl_metrics.hpp"

namespace cnd::core {

struct RunConfig {
  /// Seeds the draw of the labeled seed set (32 rows per class from
  /// experience 0's test split) handed to UCL baselines via SetupContext.
  std::uint64_t seed = 99;
  bool verbose = false;  ///< print the R matrix after the run.
};

struct RunResult {
  std::string detector_name;
  std::string dataset_name;
  eval::ClResultMatrix f1;
  eval::ClResultMatrix pr_auc;       ///< all-zero for predict-only detectors.
  bool has_pr_auc = false;
  double fit_ms_total = 0.0;
  double infer_ms_per_sample = 0.0;  ///< averaged over every evaluation call.

  double avg() const { return f1.avg_current(); }
  double fwd() const { return f1.fwd_transfer(); }
  double bwd() const { return f1.bwd_transfer(); }
};

/// Run the full protocol. Throws if the experience set is empty or the
/// detector misbehaves (wrong score length etc.).
RunResult run_protocol(ContinualDetector& det, const data::ExperienceSet& es,
                       const RunConfig& cfg = {});

/// Evaluate a *static* (fit once on N_c, never updated) scorer through the
/// same matrix, for the Fig-4/Fig-5 ND baselines. `scorer` is called with
/// each test matrix and must return one score per row; those calls are
/// timed into infer_ms_per_sample.
template <typename ScoreFn>
RunResult run_static_scorer(const std::string& name, ScoreFn&& scorer,
                            const data::ExperienceSet& es);

}  // namespace cnd::core

#include "core/experience_runner_impl.hpp"
