#include "runtime/thread_pool.hpp"

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <system_error>

#include "obs/metrics.hpp"

namespace cnd::runtime {

namespace {

thread_local bool t_in_region = false;

/// RAII flag so nested parallel_for calls detect they are already inside a
/// parallel region and fall back to serial execution.
struct RegionGuard {
  bool prev;
  RegionGuard() : prev(t_in_region) { t_in_region = true; }
  ~RegionGuard() { t_in_region = prev; }
};

std::size_t default_threads() {
  if (const char* env = std::getenv("CND_THREADS")) {
    // Digits only: std::from_chars takes no sign and no whitespace, where
    // strtoull would wrap "-1" to 2^64 - 1 lanes.
    const char* const last = env + std::strlen(env);
    std::size_t v = 0;
    const auto [end, ec] = std::from_chars(env, last, v);
    if (ec == std::errc() && end == last && v >= 1) return v;
    // Malformed or zero CND_THREADS falls through to the hardware default
    // rather than aborting the process.
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

AnnotatedMutex g_config_mutex;
std::size_t g_threads CND_GUARDED_BY(g_config_mutex) = 0;  // 0 = not yet initialized
std::unique_ptr<ThreadPool> g_pool CND_GUARDED_BY(g_config_mutex);

}  // namespace

struct ThreadPool::Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n_chunks = 0;
  std::atomic<std::size_t> next{0};   // next unclaimed chunk
  std::atomic<std::size_t> done{0};   // finished chunks
  std::size_t workers_inside = 0;     // guarded by pool mutex_
  std::exception_ptr error;           // first failure; guarded by pool mutex_
};

ThreadPool::ThreadPool(std::size_t n_workers) {
  if (n_workers == 0) n_workers = 1;
  workers_.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::work_on(Job& job, std::size_t lane) {
  // Telemetry is strictly write-only (docs/OBSERVABILITY.md): it never feeds
  // back into chunk assignment or arithmetic, so the determinism contract is
  // untouched. The clock is only read when observability is on.
  const bool timed = obs::enabled();
  const auto t0 = timed ? std::chrono::steady_clock::now()  // cnd-analyze: allow(no-clock) cnd-det-ok(obs-gated lane telemetry — never feeds chunk assignment or results)
                        : std::chrono::steady_clock::time_point{};
  std::size_t executed = 0;

  RegionGuard region;
  for (;;) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.n_chunks) break;
    try {
      (*job.fn)(c);
    } catch (...) {
      MutexLock lk(mutex_);
      if (!job.error) job.error = std::current_exception();
    }
    ++executed;
    job.done.fetch_add(1, std::memory_order_release);
  }

  if (executed > 0)
    obs::metrics().counter("runtime.tasks_total").add(executed);
  if (timed) {
    const double busy_ms = std::chrono::duration<double, std::milli>(
                               // cnd-analyze: allow(no-clock) cnd-det-ok(obs-gated lane telemetry — never feeds chunk assignment or results)
                               std::chrono::steady_clock::now() - t0)
                               .count();
    obs::metrics().gauge("runtime.lane_busy_ms." + std::to_string(lane)).add(busy_ms);
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lk(mutex_);
      // Explicit predicate loop (not wait(lk, pred)): the guarded reads must
      // sit in this function's scope for the thread-safety analysis.
      while (!stop_ && !(job_ != nullptr && epoch_ != seen_epoch)) cv_work_.wait(lk);
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
      ++job->workers_inside;
    }
    // Lane 0 is the calling thread; workers are lanes 1..W.
    work_on(*job, worker_index + 1);
    {
      MutexLock lk(mutex_);
      --job->workers_inside;
      if (job->workers_inside == 0 &&
          job->done.load(std::memory_order_acquire) == job->n_chunks)
        cv_done_.notify_all();
    }
  }
}

// cnd-alloc-ok(job bookkeeping + obs metric names; the chunk fn itself is scanned at its definition site)
void ThreadPool::run(std::size_t n_chunks,
                     const std::function<void(std::size_t)>& chunk_fn) {
  if (n_chunks == 0) return;
  MutexLock serialize(run_mutex_);

  {
    obs::MetricsRegistry& m = obs::metrics();
    m.counter("runtime.jobs_total").add(1);
    m.counter("runtime.chunks_total").add(n_chunks);
    m.gauge("runtime.queue_depth_hwm").record_max(static_cast<double>(n_chunks));
  }

  Job job;
  job.fn = &chunk_fn;
  job.n_chunks = n_chunks;
  {
    MutexLock lk(mutex_);
    job_ = &job;
    ++epoch_;
  }
  cv_work_.notify_all();

  work_on(job, /*lane=*/0);  // the caller is a lane too

  // Wait until every chunk is done AND every worker has left work_on —
  // only then is it safe to pop `job` off this stack frame.
  {
    MutexLock lk(mutex_);
    while (!(job.done.load(std::memory_order_acquire) == n_chunks &&
             job.workers_inside == 0))
      cv_done_.wait(lk);
    job_ = nullptr;
  }

  if (job.error) std::rethrow_exception(job.error);
}

// cnd-block-ok(bounded O(1) config read under g_config_mutex; never waits)
std::size_t threads() {
  MutexLock lk(g_config_mutex);
  if (g_threads == 0) g_threads = default_threads();
  return g_threads;
}

void set_threads(std::size_t n) {
  MutexLock lk(g_config_mutex);
  g_threads = n ? n : default_threads();
  g_pool.reset();  // rebuilt lazily at the new size
}

bool in_parallel_region() { return t_in_region; }

namespace detail {

// cnd-alloc-ok(lazily (re)builds the process-wide pool when the lane count changes)
ThreadPool& shared_pool() {
  const std::size_t lanes = threads();
  MutexLock lk(g_config_mutex);
  if (!g_pool || g_pool->n_workers() != lanes - 1)
    g_pool = std::make_unique<ThreadPool>(lanes - 1);
  return *g_pool;
}

}  // namespace detail

}  // namespace cnd::runtime
