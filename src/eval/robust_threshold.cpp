#include "eval/robust_threshold.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/assert.hpp"

namespace cnd::eval {

double pot_threshold(std::vector<double> cal, const PotConfig& cfg) {
  require(cal.size() >= 20, "pot_threshold: need at least 20 calibration scores");
  require(cfg.tail_quantile > 0.0 && cfg.tail_quantile < 1.0,
          "pot_threshold: tail_quantile out of (0,1)");
  require(cfg.target_prob > 0.0 && cfg.target_prob < 1.0 - cfg.tail_quantile,
          "pot_threshold: target_prob must be below the tail mass");

  std::sort(cal.begin(), cal.end());
  const auto cut_idx = static_cast<std::size_t>(
      cfg.tail_quantile * static_cast<double>(cal.size() - 1));
  const double u = cal[cut_idx];

  // Excesses over u; exponential MLE for the tail scale.
  double sum = 0.0;
  std::size_t n_exc = 0;
  for (std::size_t i = cut_idx + 1; i < cal.size(); ++i) {
    sum += cal[i] - u;
    ++n_exc;
  }
  if (n_exc == 0 || sum <= 0.0) return u;  // Degenerate tail: threshold at u.
  const double beta = sum / static_cast<double>(n_exc);

  // P(score > u + z) = p_tail * exp(-z / beta); solve for target_prob.
  const double p_tail =
      static_cast<double>(n_exc) / static_cast<double>(cal.size());
  const double z = beta * std::log(p_tail / cfg.target_prob);
  return u + std::max(z, 0.0);
}

}  // namespace cnd::eval
