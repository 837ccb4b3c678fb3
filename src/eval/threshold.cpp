#include "eval/threshold.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/assert.hpp"
#include "tensor/check.hpp"

namespace cnd::eval {

ThresholdResult best_f_threshold(const std::vector<double>& scores,
                                 const std::vector<int>& y_true) {
  require(scores.size() == y_true.size() && !scores.empty(),
          "best_f_threshold: bad inputs");

  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] > scores[b];
  });

  double pos = 0.0;
  for (int v : y_true) pos += (v == 1);

  // Walking the sorted scores, after consuming i+1 items with "predict
  // positive above this cut" we have tp/fp counts; only cuts between
  // distinct scores are valid thresholds.
  ThresholdResult best;
  best.threshold = scores[order[0]];  // predict-nothing default
  best.f1 = pos > 0.0 ? 0.0 : 1.0;

  double tp = 0.0, fp = 0.0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (y_true[order[i]] == 1)
      tp += 1.0;
    else
      fp += 1.0;
    if (i + 1 < order.size() && scores[order[i + 1]] == scores[order[i]]) continue;
    const double denom = 2.0 * tp + fp + (pos - tp);
    const double f1 = denom > 0.0 ? 2.0 * tp / denom : 0.0;
    if (f1 > best.f1) {
      best.f1 = f1;
      // Threshold strictly below the current score block, at the midpoint to
      // the next block (or just below the minimum for the all-positive cut).
      const double cur = scores[order[i]];
      const double next = i + 1 < order.size() ? scores[order[i + 1]] : cur - 1.0;
      best.threshold = 0.5 * (cur + next);
    }
  }
  return best;
}

double quantile_threshold(std::vector<double> calibration_scores, double q) {
  require(!calibration_scores.empty(), "quantile_threshold: empty calibration");
  require(q > 0.0 && q < 1.0, "quantile_threshold: q out of (0,1)");
  std::sort(calibration_scores.begin(), calibration_scores.end());
  const double pos = q * static_cast<double>(calibration_scores.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, calibration_scores.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return calibration_scores[lo] * (1.0 - frac) + calibration_scores[hi] * frac;
}

std::vector<int> apply_threshold(const std::vector<double>& scores, double threshold) {
  std::vector<int> out(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) out[i] = scores[i] > threshold ? 1 : 0;
  return out;
}

bool finite_flow(std::span<const double> features, double score) {
  return std::isfinite(score) && check::all_finite(features);
}

std::size_t verdicts_into(const Matrix& x, std::span<const double> scores,
                          double threshold, std::vector<int>& out) {
  const std::size_t d = x.cols();
  out.resize(scores.size());
  std::size_t nonfinite = 0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (finite_flow({x.data() + i * d, d}, scores[i])) {
      out[i] = scores[i] > threshold ? 1 : 0;
    } else {
      out[i] = 1;
      ++nonfinite;
    }
  }
  return nonfinite;
}

void append_finite_rows(Matrix& buffer, const Matrix& x) {
  std::vector<std::size_t> keep;
  keep.reserve(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i)
    if (check::all_finite(x.row(i))) keep.push_back(i);
  if (keep.size() == x.rows())
    buffer.append_rows(x);
  else
    buffer.append_rows(x.take_rows(keep));
}

}  // namespace cnd::eval
