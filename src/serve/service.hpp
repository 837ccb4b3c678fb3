// Sharded scoring service: the one deployment loop (docs/SERVING.md).
//
// The paper adapts at experience boundaries a deployed monitor never sees.
// Here the admitted-flow count is the trigger: every adapt_interval_flows
// flows, the trainer observes the window admitted since the last round.
// Drift-gated adaptation is the same loop serving detector "Adaptive",
// whose Page-Hinkley gate decides inside observe_experience whether the
// window refits the model or is skipped.
//
// Topology: one producer thread (the caller of try_submit) feeds a bounded
// admission queue; N shard workers pop batches and score them against an
// inference-only replica of the current artifact. A trainer detector — the
// "background copy" — holds the full training state and never serves; an
// adaptation round runs on it synchronously inside try_submit at
// deterministic admitted-flow boundaries, then publishes a new artifact
// version. Batches admitted after the publish carry the new version, so
// every shard hot-swaps its replica on the next batch it pops — the swap is
// a wholesale pointer exchange, never an in-place mutation of a scoring
// model.
//
// Determinism across shard counts: a batch's artifact version is fixed at
// admission (a function of the admitted-flow count only, never of worker
// timing), and replicas restored from one artifact score byte-identically
// to each other and to the trainer. Hence the scores and verdicts of every
// admitted batch are the same at 1 shard and at 16 — check_determinism.sh
// holds the serving leg to exactly that.
//
// Backpressure: a full queue rejects the submission (try_submit returns
// false, serve.rejected_total counts it). The producer is never blocked;
// shedding or retrying is its call.
//
// Fail closed: verdicts go through eval::verdicts_into, so a flow with a
// non-finite feature or score is alarmed and counted in
// serve.nonfinite_total, never passed as benign.
//
// Shard workers are dedicated std::threads, not runtime::ThreadPool lanes:
// they block on the queue for their whole life, which would starve the
// pool's chunk lanes. A replica's own batch scoring still runs through the
// pool (ThreadPool::run serializes concurrent callers).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/detector_factory.hpp"
#include "runtime/annotated_mutex.hpp"
#include "serve/artifact.hpp"
#include "serve/ring_buffer.hpp"
#include "tensor/matrix.hpp"

namespace cnd::serve {

struct ServiceConfig {
  /// Registry name of the detector; must support_snapshot().
  std::string detector = "CND-IDS";
  core::DetectorConfig detector_cfg;
  std::size_t shards = 1;
  std::size_t queue_capacity = 64;
  /// POT target false-alarm probability for the calibrated threshold.
  double target_fpr = 0.01;
  /// 0 = adaptation off. Otherwise an adaptation round (trainer
  /// observe_experience on the flows admitted since the last round, minus
  /// those with a non-finite feature + threshold recalibration on the clean
  /// window + artifact publish) runs each time the admitted-flow count
  /// crosses a multiple of this value.
  std::size_t adapt_interval_flows = 0;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// One admitted batch: the input rows, the artifact version that must score
/// them, and the worker-filled outputs. The worker frees the input once the
/// batch is scored: on a million-flow soak the retained inputs would dwarf
/// everything else.
struct BatchResult {
  Matrix input;
  std::shared_ptr<const ServingArtifact> artifact;
  std::uint64_t first_flow = 0;  ///< global index of the batch's first flow.
  std::vector<double> scores;
  std::vector<int> verdicts;
};

class ScoringService {
 public:
  explicit ScoringService(const ServiceConfig& cfg);
  /// Joins the shard workers (drains the queue first).
  ~ScoringService();

  ScoringService(const ScoringService&) = delete;
  ScoringService& operator=(const ScoringService&) = delete;

  /// Train the trainer on the operator-vouched clean window, calibrate the
  /// threshold, publish artifact v1, and start the shard workers. Must be
  /// called exactly once before try_submit. A clean window with a
  /// non-finite feature throws std::invalid_argument naming the row.
  void bootstrap(const Matrix& n_clean);

  /// Admit one batch for scoring. Returns false (and counts the rejection)
  /// when the queue is full — backpressure, never blocking. May run a
  /// synchronous adaptation round after admission (see
  /// ServiceConfig::adapt_interval_flows). Only one thread may submit.
  bool try_submit(const Matrix& batch);

  /// Block until every admitted batch has been scored.
  void drain();

  /// Stop admitting, drain, and join the workers. Idempotent.
  void shutdown();

  /// All admitted batches in admission order. Stable references; outputs of
  /// a batch are valid once drain() returns (or shutdown()).
  const std::deque<BatchResult>& results() const { return results_; }

  std::uint64_t artifact_version() const { return version_; }
  double threshold() const { return threshold_; }
  std::uint64_t flows_admitted() const { return flows_admitted_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t adaptations() const { return adaptations_; }
  /// Replica (re)builds across all shards, initial loads included.
  std::uint64_t swaps() const { return swaps_.load(std::memory_order_relaxed); }

 private:
  void worker_loop();
  /// Buffer admitted flows and run the adaptation round when due.
  void maybe_adapt(const Matrix& batch);
  /// Set threshold_ by POT on the trainer's clean-window scores: at
  /// bootstrap and after every round, never on the live buffer, which an
  /// attack wave can dominate.
  void calibrate();
  /// Snapshot the trainer into artifact version_ + 1.
  void publish();

  ServiceConfig cfg_;
  std::unique_ptr<core::ContinualDetector> trainer_;
  Matrix n_clean_;
  Matrix adapt_buffer_;
  std::shared_ptr<const ServingArtifact> artifact_;  ///< producer-only.
  std::uint64_t version_ = 0;
  double threshold_ = 0.0;
  std::uint64_t flows_admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t adaptations_ = 0;
  std::atomic<std::uint64_t> swaps_{0};

  /// Admission order; std::deque for reference stability — workers write
  /// through pointers into elements while the producer appends new ones.
  std::deque<BatchResult> results_;
  RingBuffer<BatchResult*> queue_;
  std::vector<std::thread> workers_;
  runtime::AnnotatedMutex pending_mu_;
  runtime::CondVar drained_cv_;  ///< drain() sleeps here until pending_ hits 0.
  std::size_t pending_ CND_GUARDED_BY(pending_mu_) = 0;  ///< admitted but not yet scored.
  bool running_ = false;  ///< producer-only, like the artifact_/version_ block above.
};

}  // namespace cnd::serve
