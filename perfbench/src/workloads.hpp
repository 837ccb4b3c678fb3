// The four benchmark workloads and the helpers they share (README.md has
// the why of each workload and the definition of every metric).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cnd_ids.hpp"
#include "harness.hpp"
#include "tensor/matrix.hpp"

namespace cnd::perfbench {

Outcome run_serve_steady(const RunArgs& args, Tracer& tracer);
Outcome run_serve_adapt(const RunArgs& args, Tracer& tracer);
Outcome run_protocol(const RunArgs& args, Tracer& tracer);
Outcome run_knn_ann(const RunArgs& args, Tracer& tracer);

/// Flow features per record in the serving and kNN streams.
inline constexpr std::size_t kFlowDim = 32;

/// Seed of the traffic model (profile means, mixing matrices, drift) of
/// every workload. --seed draws the flows from that model, so each seed
/// asks for the same kind of work: a workload's cost must not hinge on
/// which random model a seed happened to build.
inline constexpr std::uint64_t kTrafficSeed = 0x7AFF1C;

/// A generated d=32 flow stream: normal traffic that drifts over the stream
/// with two attack waves, written to a flow-record file.
struct FlowStream {
  Matrix clean;             ///< vouched clean window (normal, phase 0).
  Matrix reference;         ///< extra clean rows (kNN reference set).
  std::vector<int> labels;  ///< per file row: 1 inside an attack wave.
};

/// Draw the stream from the fixed traffic model with `seed`, write `flows`
/// rows to `path` (in stream order, or `shuffled` into a seeded random
/// order) and fsync.
FlowStream make_flow_stream(std::uint64_t seed, std::size_t clean_rows,
                            std::size_t reference_rows, std::size_t flows,
                            bool shuffled, const std::string& path);

/// Median wall time of `fn` in ms over repeats that together take at least
/// `min_total_ms` (at least `min_reps`, at most 10000).
template <typename Fn>
double time_ms(Fn&& fn, double min_total_ms = 200.0, std::size_t min_reps = 3) {
  std::vector<double> t;
  double total = 0.0;
  while ((t.size() < min_reps || total < min_total_ms) && t.size() < 10000) {
    const Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(ms_between(t0, Clock::now()));
    total += t.back();
  }
  return median(std::move(t));
}

/// Per-layer timings of a trained CND-IDS, measured outside the timed phase
/// by calling the layer functions the detector's own calls are made of, on
/// the workload's inputs: the encoder and PCA halves of score_into, one CFE
/// mini-batch, the eigensolve inside the PCA fit, the elbow sweep and
/// K-Means.
void probe_cnd_layers(core::CndIds& det, const core::CndIdsConfig& cfg,
                      const Matrix& batch, const Matrix& clean,
                      const Matrix& train_stream, std::uint64_t seed, Outcome& out);

/// Eval-layer timings on the workload's own scores: Best-F threshold and
/// PR-AUC against `labels`, POT on `calibration`.
void probe_eval(const std::vector<double>& scores, const std::vector<int>& labels,
                const std::vector<double>& calibration, Outcome& out);

/// Copy the training-path timers the program keeps itself (observability
/// on in the traced run only) into per-layer metrics.
void read_program_timers(Outcome& out);

/// Coverage, tracing overhead and the dominant layer of the timed phase.
void summarize_trace(const Tracer& tracer, Clock::time_point from,
                     Clock::time_point to, Outcome& out);

}  // namespace cnd::perfbench
