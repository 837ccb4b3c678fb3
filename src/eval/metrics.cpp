#include "eval/metrics.hpp"

#include <algorithm>
#include <numeric>

#include "tensor/assert.hpp"

namespace cnd::eval {

Confusion confusion(const std::vector<int>& y_pred, const std::vector<int>& y_true) {
  require(y_pred.size() == y_true.size(), "confusion: size mismatch");
  Confusion c;
  for (std::size_t i = 0; i < y_pred.size(); ++i) {
    require((y_pred[i] == 0 || y_pred[i] == 1) && (y_true[i] == 0 || y_true[i] == 1),
            "confusion: labels must be 0/1");
    if (y_true[i] == 1)
      (y_pred[i] == 1 ? c.tp : c.fn)++;
    else
      (y_pred[i] == 1 ? c.fp : c.tn)++;
  }
  return c;
}

double precision(const Confusion& c) {
  const auto denom = c.tp + c.fp;
  return denom ? static_cast<double>(c.tp) / static_cast<double>(denom) : 0.0;
}

double recall(const Confusion& c) {
  const auto denom = c.tp + c.fn;
  return denom ? static_cast<double>(c.tp) / static_cast<double>(denom) : 0.0;
}

double f1_score(const Confusion& c) {
  const double p = precision(c);
  const double r = recall(c);
  return (p + r) > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
}

double f1_score(const std::vector<int>& y_pred, const std::vector<int>& y_true) {
  return f1_score(confusion(y_pred, y_true));
}

double accuracy(const Confusion& c) {
  const auto total = c.tp + c.fp + c.tn + c.fn;
  return total ? static_cast<double>(c.tp + c.tn) / static_cast<double>(total) : 0.0;
}

double pr_auc(const std::vector<double>& scores, const std::vector<int>& y_true) {
  require(scores.size() == y_true.size() && !scores.empty(), "auc: bad inputs");
  double pos = 0.0;
  for (int v : y_true)
    if (v == 1) pos += 1.0;
  if (pos == 0.0) return 0.0;
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });

  // Sweep rows by descending score and integrate precision over recall at
  // each distinct score cut (step-wise, averaging precision across each
  // recall increment — equivalent to sklearn's average_precision when points
  // are per-sample).
  double auc = 0.0, tp = 0.0, fp = 0.0, prev_tp = 0.0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    (y_true[order[i]] == 1 ? tp : fp) += 1.0;
    // An operating point exists only after the last element of a tied block.
    if (i + 1 < order.size() && scores[order[i + 1]] == scores[order[i]]) continue;
    if (tp > prev_tp) auc += tp / (tp + fp) * ((tp - prev_tp) / pos);
    prev_tp = tp;
  }
  return auc;
}

}  // namespace cnd::eval
