// Anomaly-score thresholding.
//
// The paper uses Best-F [24] (OmniAnomaly's protocol): sweep every candidate
// threshold induced by the observed scores and keep the one maximizing F1.
// A label-free quantile alternative is provided for the thresholding
// ablation bench. verdicts_into is the deployed alarm rule.
#pragma once

#include <span>
#include <vector>

#include "tensor/matrix.hpp"

namespace cnd::eval {

struct ThresholdResult {
  double threshold = 0.0;
  double f1 = 0.0;
};

/// Best-F: maximize F1 over all thresholds of the form "predict attack when
/// score > t", with t taken from the distinct observed scores (plus one
/// below the minimum). O(n log n).
ThresholdResult best_f_threshold(const std::vector<double>& scores,
                                 const std::vector<int>& y_true);

/// Label-free alternative: threshold at the q-quantile of the scores of the
/// (assumed mostly normal) calibration set.
double quantile_threshold(std::vector<double> calibration_scores, double q);

/// Apply: predictions are score > threshold.
std::vector<int> apply_threshold(const std::vector<double>& scores, double threshold);

/// True when every feature of a flow and its score are finite.
bool finite_flow(std::span<const double> features, double score);

/// Fail-closed verdicts: the one alarm rule of every deployed verdict site
/// (serving shards, `cnd score`, `cnd restore`). Flow i is row i of `x`,
/// scored scores[i]. Its verdict is 1 when any feature or the score is
/// non-finite, since an IDS must never pass a flow it cannot score as
/// benign, and scores[i] > threshold otherwise. The features are checked,
/// not only the score, because ReLU maps NaN to 0: a NaN feature can come
/// out of the encoder with a finite score. `out` is resized to the flow
/// count (no allocation once it has the capacity). Returns the number of
/// non-finite flows.
std::size_t verdicts_into(const Matrix& x, std::span<const double> scores,
                          double threshold, std::vector<int>& out);

/// Append the rows of `x` whose features are all finite to `buffer`, in
/// order: the admission rule of the serving adaptation buffer, so a
/// non-finite flow never reaches a fit.
void append_finite_rows(Matrix& buffer, const Matrix& x);

}  // namespace cnd::eval
