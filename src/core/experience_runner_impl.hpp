// Template implementation for run_static_scorer (included by
// experience_runner.hpp; do not include directly).
#pragma once

#include "eval/metrics.hpp"
#include "eval/threshold.hpp"
#include "obs/scoped_timer.hpp"

namespace cnd::core {

template <typename ScoreFn>
RunResult run_static_scorer(const std::string& name, ScoreFn&& scorer,
                            const data::ExperienceSet& es) {
  const std::size_t m = es.size();
  RunResult res{.detector_name = name,
                .dataset_name = es.dataset_name,
                .f1 = eval::ClResultMatrix(m),
                .pr_auc = eval::ClResultMatrix(m),
                .has_pr_auc = true};
  // A static model gives the same scores regardless of the training
  // experience; evaluate each test set once and broadcast across rows.
  double infer_ms = 0.0;
  std::size_t infer_samples = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const auto& e = es.experiences[j];
    obs::Stopwatch t;
    const std::vector<double> s = scorer(e.x_test);
    infer_ms += t.elapsed_ms();
    infer_samples += e.x_test.rows();
    const auto best = eval::best_f_threshold(s, e.y_test);
    const double ap = eval::pr_auc(s, e.y_test);
    for (std::size_t i = 0; i < m; ++i) {
      res.f1.set(i, j, best.f1);
      res.pr_auc.set(i, j, ap);
    }
  }
  res.infer_ms_per_sample =
      infer_samples > 0 ? infer_ms / static_cast<double>(infer_samples) : 0.0;
  return res;
}

}  // namespace cnd::core
