// Page-Hinkley test for an upward shift in the mean of a univariate stream
// (e.g. anomaly scores).
//
// The drift gate of AdaptiveCndIds: it decides *when* a training stream
// refits the model instead of refitting on every one.
#pragma once

#include <cstddef>

namespace cnd::ml {

/// Page-Hinkley test for an upward shift in the mean of a stream.
/// Alarms when the cumulative positive deviation from the running mean
/// exceeds `lambda`. `delta` is the magnitude tolerance (shifts smaller
/// than delta are ignored).
class PageHinkley {
 public:
  explicit PageHinkley(double delta = 0.05, double lambda = 50.0,
                       std::size_t min_samples = 30);

  /// Feed one observation; returns true if drift is signaled (the detector
  /// resets itself after signaling).
  bool update(double value);

  void reset();
  std::size_t n_seen() const { return n_; }
  double statistic() const { return mt_ - min_mt_; }

  /// Runtime statistic of the test, exposed for detector snapshots: a
  /// restored replica must alarm at exactly the observation the live one
  /// would, so its drift state travels with the model state.
  struct State {
    std::size_t n = 0;
    double mean = 0.0;
    double mt = 0.0;
    double min_mt = 0.0;
  };
  State state() const { return {n_, mean_, mt_, min_mt_}; }
  void set_state(const State& s) {
    n_ = s.n;
    mean_ = s.mean;
    mt_ = s.mt;
    min_mt_ = s.min_mt;
  }

 private:
  double delta_, lambda_;
  std::size_t min_samples_;
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double mt_ = 0.0;      ///< cumulative deviation.
  double min_mt_ = 0.0;  ///< running minimum of mt.
};

}  // namespace cnd::ml
