// Observability substrate: process-wide metrics registry.
//
// Counters, gauges, and fixed-bucket histograms, all safe to update from any
// thread (including runtime::parallel_for workers) with exact totals under
// contention. Instrumented code holds references obtained from a
// MetricsRegistry; the handles live as long as the registry, so hot paths
// update lock-free atomics and never repeat the name lookup.
//
// Interaction with the determinism contract (docs/PARALLELISM.md): metrics
// are a write-only side channel. Nothing in the library reads a metric back
// into a computation, so enabling or disabling observability can never
// change a result CSV. Wall-clock and thread-attributed values live here and
// in the event log (event_log.hpp) only.
//
// Timers (scoped_timer.hpp) and the per-chunk runtime instrumentation are
// additionally gated on the global `enabled()` flag so the hot paths do not
// even read a clock when observability is off; plain counter/gauge updates
// are single relaxed atomics and stay on unconditionally.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/annotated_mutex.hpp"

namespace cnd::obs {

/// Global observability switch. Off by default: ScopedTimer and the thread
/// pool's busy-time instrumentation become no-ops (no clock reads). Flipped
/// on by `--metrics-out` in the bench harness or explicitly by embedders.
bool enabled();
void set_enabled(bool on);

namespace detail {
/// CAS add for pre-C++20-fetch_add portability on atomic<double>.
inline void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}
inline void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (cur < v && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Monotonic event count. Exact under concurrent add() from any number of
/// threads.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written scalar with add/max combinators (for sizes, thresholds,
/// high-water marks, accumulated busy time).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double v) { detail::atomic_add(v_, v); }
  void record_max(double v) { detail::atomic_max(v_, v); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram. A sample lands in the first bucket whose upper
/// bound is >= the value (bounds are inclusive upper edges); values above
/// the last bound land in the overflow bucket. Bucket layout is fixed at
/// construction so record() is a binary search plus one atomic increment.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> bounds);

  void record(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Buckets = bounds().size() + 1; the last index is the overflow bucket.
  std::size_t n_buckets() const { return counts_.size(); }
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Bucket-edge estimate of the q-quantile: the inclusive upper edge of the
  /// first bucket whose cumulative count reaches q * count(). Overflow
  /// samples report the last finite edge (a lower bound); 0 when empty.
  double quantile(double q) const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< bounds_.size() + 1.
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default histogram edges for millisecond timings: 0.1 ms .. 10 s.
const std::vector<double>& default_time_buckets_ms();

/// Named metric store. Lookup is mutex-protected; the returned references
/// are stable for the registry's lifetime (entries are never removed), so
/// callers cache them across calls. All three families share one namespace
/// convention ("layer.metric_unit", e.g. "cnd.cfe_fit_ms") but live in
/// separate maps, so a counter and a gauge may not share a name within
/// their family.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Registers with `bounds` on first use; later calls with the same name
  /// return the existing histogram and ignore `bounds`.
  Histogram& histogram(std::string_view name,
                       const std::vector<double>& bounds = default_time_buckets_ms());

  /// Zero every registered metric (registrations survive). For test
  /// isolation and per-run bench records.
  void reset();

  std::vector<std::string> counter_names() const;
  std::vector<std::string> gauge_names() const;
  std::vector<std::string> histogram_names() const;

  /// Full snapshot as one JSON object:
  ///   {"counters":{...},"gauges":{...},"histograms":{...}}
  /// Names are emitted in sorted order. See docs/OBSERVABILITY.md for the
  /// histogram encoding.
  std::string to_json() const;
  /// Same content without the outer braces, for embedding into a larger
  /// JSON object (the bench harness's metrics_snapshot event).
  std::string to_json_fields() const;

 private:
  /// Guards the name->metric maps only; the metrics themselves are lock-free
  /// atomics, so cached handles never touch this mutex again.
  mutable runtime::AnnotatedMutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_ CND_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_ CND_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_ CND_GUARDED_BY(mutex_);
};

/// The process-global registry every instrumented layer writes to.
MetricsRegistry& metrics();

}  // namespace cnd::obs
