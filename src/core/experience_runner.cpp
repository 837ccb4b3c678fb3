#include "core/experience_runner.hpp"

#include <iostream>

#include "eval/metrics.hpp"
#include "eval/threshold.hpp"
#include "obs/scoped_timer.hpp"
#include "tensor/assert.hpp"
#include "tensor/check.hpp"
#include "tensor/rng.hpp"

namespace cnd::core {

namespace {

/// Labeled seed rows per class handed to the UCL baselines.
constexpr std::size_t kSeedPerClass = 32;

/// Draw a small labeled seed (per-class balanced) from experience 0's test
/// split. This is the bootstrap the UCL baselines need; CND-IDS ignores it.
void build_seed(const data::ExperienceSet& es, Rng& rng, Matrix* seed_x,
                std::vector<int>* seed_y) {
  const auto& e0 = es.experiences.front();
  std::vector<std::size_t> normals, attacks;
  for (std::size_t i = 0; i < e0.y_test.size(); ++i)
    (e0.y_test[i] == 0 ? normals : attacks).push_back(i);
  rng.shuffle(normals);
  rng.shuffle(attacks);
  if (normals.size() > kSeedPerClass) normals.resize(kSeedPerClass);
  if (attacks.size() > kSeedPerClass) attacks.resize(kSeedPerClass);

  std::vector<std::size_t> rows = normals;
  rows.insert(rows.end(), attacks.begin(), attacks.end());
  *seed_x = e0.x_test.take_rows(rows);
  seed_y->clear();
  for (std::size_t i = 0; i < normals.size(); ++i) seed_y->push_back(0);
  for (std::size_t i = 0; i < attacks.size(); ++i) seed_y->push_back(1);
}

}  // namespace

RunResult run_protocol(ContinualDetector& det, const data::ExperienceSet& es,
                       const RunConfig& cfg) {
  require(es.size() >= 2, "run_protocol: need at least 2 experiences");
  const std::size_t m = es.size();

  RunResult res{.detector_name = det.name(),
                .dataset_name = es.dataset_name,
                .f1 = eval::ClResultMatrix(m),
                .pr_auc = eval::ClResultMatrix(m),
                .has_pr_auc = det.has_scores()};

  Rng rng(cfg.seed);
  Matrix seed_x;
  std::vector<int> seed_y;
  build_seed(es, rng, &seed_x, &seed_y);
  det.setup(SetupContext{es.n_clean, seed_x, seed_y});

  double infer_ms = 0.0;
  std::size_t infer_samples = 0;

  for (std::size_t i = 0; i < m; ++i) {
    obs::Stopwatch fit_timer;
    det.observe_experience(es.experiences[i].x_train);
    res.fit_ms_total += fit_timer.elapsed_ms();

    for (std::size_t j = 0; j < m; ++j) {
      const auto& e = es.experiences[j];
      obs::Stopwatch t;
      if (det.has_scores()) {
        const std::vector<double> s = det.score(e.x_test);
        infer_ms += t.elapsed_ms();
        infer_samples += e.x_test.rows();
        require(s.size() == e.y_test.size(), "run_protocol: bad score length");
        CND_DCHECK_ALL_FINITE(std::span<const double>(s),
                              "run_protocol: non-finite detector score");
        const auto best = eval::best_f_threshold(s, e.y_test);
        res.f1.set(i, j, best.f1);
        res.pr_auc.set(i, j, eval::pr_auc(s, e.y_test));
      } else {
        const std::vector<int> p = det.predict(e.x_test);
        infer_ms += t.elapsed_ms();
        infer_samples += e.x_test.rows();
        require(p.size() == e.y_test.size(), "run_protocol: bad prediction length");
        res.f1.set(i, j, eval::f1_score(p, e.y_test));
      }
    }
  }
  res.infer_ms_per_sample =
      infer_samples > 0 ? infer_ms / static_cast<double>(infer_samples) : 0.0;

  if (cfg.verbose)
    std::cout << res.f1.to_string(res.detector_name + " on " + res.dataset_name);
  return res;
}

}  // namespace cnd::core
