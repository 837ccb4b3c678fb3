// Fixed-size thread pool and global thread-count configuration.
//
// This is the parallel compute substrate for the whole repository: matmul,
// detector batch scoring, tree-ensemble fitting, and the bench fan-outs all
// distribute work through it (via parallel_for.hpp). The design is
// deliberately minimal — a fixed set of std::thread workers pulling chunk
// indices from one job at a time, no work stealing, no task graph — because
// the hot paths are all flat index ranges and the repository's determinism
// contract (docs/PARALLELISM.md) forbids anything whose output depends on
// scheduling order.
//
// Threading contract in one line: work is partitioned by index, every index
// runs exactly once, and no hot path changes its per-index floating-point
// arithmetic based on the thread count — so outputs are bit-identical for
// any CND_THREADS, and CND_THREADS=1 is a true serial fallback.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "runtime/annotated_mutex.hpp"

namespace cnd::runtime {

/// Fixed set of worker threads executing one chunked job at a time. The
/// calling thread participates in every job, so a pool of W workers gives
/// W + 1 execution lanes. Use through parallel_for unless you need direct
/// control (tests do).
class ThreadPool {
 public:
  /// Spawns `n_workers` (>= 1) threads immediately; they idle on a condition
  /// variable until run() is called.
  explicit ThreadPool(std::size_t n_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t n_workers() const { return workers_.size(); }

  /// Execute chunk_fn(c) for every c in [0, n_chunks), distributing chunks
  /// over the workers plus the calling thread. Blocks until every chunk has
  /// finished (even if some threw); the first exception raised by any chunk
  /// is rethrown here. Safe to call concurrently from multiple threads
  /// (calls are serialized). A chunk function calling run() again on the
  /// same pool would deadlock — parallel_for prevents this by running
  /// nested regions serially.
  void run(std::size_t n_chunks, const std::function<void(std::size_t)>& chunk_fn);

 private:
  struct Job;
  void worker_loop(std::size_t worker_index);
  /// Pull chunks until the job is drained. `lane` identifies the executing
  /// thread for telemetry only (0 = calling thread, 1..W = workers).
  void work_on(Job& job, std::size_t lane);

  std::vector<std::thread> workers_;
  /// Guards job_, epoch_, stop_, and the Job bookkeeping fields
  /// (Job::workers_inside / Job::error — a nested struct cannot name its
  /// owning pool's mutex in an annotation, so those two stay prose-guarded).
  AnnotatedMutex mutex_;
  CondVar cv_work_;  // workers wait here for a new job
  CondVar cv_done_;  // run() waits here for completion
  /// Serializes concurrent run() callers; always taken before mutex_ (the
  /// declared order lets Clang flag an inversion at compile time).
  AnnotatedMutex run_mutex_ CND_ACQUIRED_BEFORE(mutex_);
  Job* job_ CND_GUARDED_BY(mutex_) = nullptr;
  /// Bumped per job so workers join each job exactly once.
  std::uint64_t epoch_ CND_GUARDED_BY(mutex_) = 0;
  bool stop_ CND_GUARDED_BY(mutex_) = false;
};

/// Upper bound on the lane count. The shared pool starts threads() - 1 OS
/// threads, so an unbounded count would ask the OS for as many threads as
/// a typo names (the same bound as serve::kMaxShards).
inline constexpr std::size_t kMaxThreads = 256;

/// Effective lane count (caller + workers) used by parallel_for; always in
/// [1, kMaxThreads]. Initialized on first use from CND_THREADS if set (an
/// integer in that range), else std::thread::hardware_concurrency() clamped
/// to it.
std::size_t threads();

/// Override the lane count. n = 0 resets to the default (CND_THREADS env or
/// hardware concurrency). n = 1 disables parallelism entirely — the serial
/// fallback. n > kMaxThreads throws std::invalid_argument and changes
/// nothing. The shared pool is torn down and lazily rebuilt at the new
/// size; do not call concurrently with in-flight parallel_for work.
void set_threads(std::size_t n);

/// True on a thread currently executing parallel_for chunks (worker or
/// participating caller). parallel_for consults this to run nested calls
/// serially instead of deadlocking on the shared pool.
bool in_parallel_region();

namespace detail {
/// Shared pool sized threads() - 1, created lazily. Only called when
/// threads() > 1.
ThreadPool& shared_pool();
}  // namespace detail

}  // namespace cnd::runtime
