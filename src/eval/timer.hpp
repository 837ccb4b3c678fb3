// Wall-clock timing helper for the overhead analysis (Table IV).
#pragma once

#include <chrono>

namespace cnd::eval {

class Timer {
 public:
  Timer() : start_(now()) {}
  void reset() { start_ = now(); }

  /// Elapsed milliseconds since construction or last reset().
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  // Table IV reports wall-clock fit/infer overhead, so this header is a
  // sanctioned measurement surface outside src/obs.
  // cnd-det-ok(sanctioned measurement surface — timings feed bench/eval timing fields, never scores)
  static clock::time_point now() { return clock::now(); }  // cnd-analyze: allow(no-clock)
  clock::time_point start_;
};

}  // namespace cnd::eval
