// Shared pieces of the benchmark workloads: the run arguments, the outcome
// a workload hands back, timing helpers, and quantiles over raw samples.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace cnd::perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The time point `seconds` after `t`.
inline Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for generated inputs and trace files.
  std::string workdir = ".";
};

/// What one workload run reports. End-to-end metrics are filled on every
/// run; per-layer metrics only matter in the traced run.
struct Outcome {
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> end_to_end;
  std::map<std::string, Value> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Checks that are not per-operation (e.g. a recall floor).
  std::vector<std::string> check_errors;
  /// Run-record fields: key -> already-encoded JSON value.
  std::vector<std::pair<std::string, std::string>> record;

  void e2e(const std::string& name, double v, const std::string& unit) {
    end_to_end[name] = {v, unit};
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    per_layer[name] = {v, unit};
  }
  void note(const std::string& key, double v);
  void note(const std::string& key, const std::string& text);
};

/// q-quantile of raw samples by linear interpolation between order
/// statistics (Hyndman-Fan type 7). Empty input gives 0.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Flush a generated input file to disk (fsync), so that page-cache
/// writeback from input generation does not overlap the timed phase.
void fsync_file(const std::string& path);

}  // namespace cnd::perfbench
