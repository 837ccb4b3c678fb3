// Wall-clock timing: a plain stopwatch and an RAII phase timer built on it.
//
// Stopwatch always reads the clock. It serves the timing fields callers
// report whether or not observability is on (RunResult's Table IV
// overhead, the CLI and bench summaries). Apart from the thread pool's
// obs-gated lane telemetry, its clock read is the library's only one
// (docs/STATIC_ANALYSIS.md).
//
// ScopedTimer checks obs::enabled() once at construction: when
// observability is off it never starts its stopwatch or touches the
// registry, so instrumenting a hot path costs a single relaxed atomic load.
// When on, the destructor (or an explicit stop_ms()) records the elapsed
// milliseconds into the named histogram of the given registry.
#pragma once

#include <chrono>
#include <string_view>

#include "obs/metrics.hpp"

namespace cnd::obs {

class Stopwatch {
 public:
  /// Starts timing now; with `start` false the clock is not read until
  /// reset().
  explicit Stopwatch(bool start = true) {
    if (start) reset();
  }
  void reset() { start_ = now(); }

  /// Elapsed milliseconds since construction or the last reset().
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  // cnd-det-ok(write-only timing — durations feed telemetry and reported timing fields, never scores)
  static clock::time_point now() { return clock::now(); }
  clock::time_point start_{};
};

class ScopedTimer {
 public:
  /// Times into `registry.histogram(name)` (default ms buckets).
  ScopedTimer(MetricsRegistry& registry, std::string_view name)
      : hist_(enabled() ? &registry.histogram(name) : nullptr),
        watch_(hist_ != nullptr) {}

  /// Times into an already-resolved histogram (for per-call hot paths that
  /// cache the handle).
  explicit ScopedTimer(Histogram& hist)
      : hist_(enabled() ? &hist : nullptr), watch_(hist_ != nullptr) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Record now instead of at scope exit. Returns the elapsed milliseconds
  /// (0.0 when observability is off).
  double stop_ms() {
    if (!hist_) return 0.0;
    const double ms = watch_.elapsed_ms();
    hist_->record(ms);
    hist_ = nullptr;
    return ms;
  }

  ~ScopedTimer() { stop_ms(); }

 private:
  Histogram* hist_ = nullptr;  ///< null when off or already recorded.
  Stopwatch watch_;            ///< started only when hist_ is set.
};

}  // namespace cnd::obs
