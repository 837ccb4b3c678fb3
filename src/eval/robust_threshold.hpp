// Label-free threshold rule beyond the quantile baseline.
//
// POT-lite: a simplified peaks-over-threshold rule — fit an exponential tail
// to the calibration excesses over a high quantile and place the threshold
// at a target tail probability; the standard EVT recipe (SPOT) with the GPD
// specialized to its exponential case.
#pragma once

#include <vector>

namespace cnd::eval {

struct PotConfig {
  double tail_quantile = 0.95;  ///< excesses above this quantile form the tail.
  double target_prob = 1e-3;    ///< desired P(score > threshold) on normal data.
};

/// Exponential-tail peaks-over-threshold threshold.
double pot_threshold(std::vector<double> calibration_scores,
                     const PotConfig& cfg = {});

}  // namespace cnd::eval
