// Binary classification metrics for intrusion detection.
//
// Attack = positive class (label 1). PR-AUC uses Davis–Goadrich style
// interpolation over the score-induced operating points, which is the
// threshold-free metric the paper reports (Fig. 5).
#pragma once

#include <vector>

namespace cnd::eval {

struct Confusion {
  std::size_t tp = 0, fp = 0, tn = 0, fn = 0;
};

/// Tally a prediction/label pair list (values must be 0/1).
Confusion confusion(const std::vector<int>& y_pred, const std::vector<int>& y_true);

double precision(const Confusion& c);
double recall(const Confusion& c);
/// F1 = harmonic mean; 0 when there are no predicted or actual positives.
double f1_score(const Confusion& c);
double f1_score(const std::vector<int>& y_pred, const std::vector<int>& y_true);
double accuracy(const Confusion& c);

/// Area under the precision-recall curve from continuous anomaly scores
/// (higher score = more attack-like). Returns the positive-class prevalence
/// when scores are all equal (the random-classifier PR-AUC).
double pr_auc(const std::vector<double>& scores, const std::vector<int>& y_true);

}  // namespace cnd::eval
