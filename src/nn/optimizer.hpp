// Adam (Kingma & Ba), the optimizer the paper trains the CFE with
// (lr = 0.001 in the paper's setup).
//
// Adam operates on the Param list a network exposes and keeps its moment
// state positionally, so a given instance must always be stepped with the
// same network.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace cnd::nn {

class Adam {
 public:
  /// The paper's moment decays and epsilon (beta1 = 0.9, beta2 = 0.999,
  /// eps = 1e-8) are fixed; only the learning rate varies between callers.
  explicit Adam(double lr = 1e-3);

  /// Apply one update using the gradients currently accumulated in `params`,
  /// then zero those gradients.
  void step(std::vector<Param> params);

 private:
  double lr_;
  long t_ = 0;
  std::vector<Matrix> m_;  // first moments, positional per param
  std::vector<Matrix> v_;  // second moments
};

}  // namespace cnd::nn
