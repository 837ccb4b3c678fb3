#include "ml/drift_detector.hpp"

#include <algorithm>

#include "tensor/assert.hpp"

namespace cnd::ml {

PageHinkley::PageHinkley(double delta, double lambda, std::size_t min_samples)
    : delta_(delta), lambda_(lambda), min_samples_(min_samples) {
  require(lambda > 0.0, "PageHinkley: lambda must be > 0");
  require(delta >= 0.0, "PageHinkley: delta must be >= 0");
}

// One observation of the Page-Hinkley statistic: pure arithmetic, sits on
// the adaptive drift gate that runs per incoming chunk.
// cnd-hot
bool PageHinkley::update(double value) {
  ++n_;
  mean_ += (value - mean_) / static_cast<double>(n_);
  mt_ += value - mean_ - delta_;
  min_mt_ = std::min(min_mt_, mt_);
  if (n_ >= min_samples_ && mt_ - min_mt_ > lambda_) {
    reset();
    return true;
  }
  return false;
}

void PageHinkley::reset() {
  n_ = 0;
  mean_ = 0.0;
  mt_ = 0.0;
  min_mt_ = 0.0;
}

}  // namespace cnd::ml
