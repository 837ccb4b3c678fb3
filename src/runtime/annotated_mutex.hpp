// Annotated mutex, scoped lock, and condition variable wrappers
// (docs/STATIC_ANALYSIS.md, "Concurrency contracts").
//
// std::mutex carries no thread-safety annotations, so Clang's analysis
// cannot connect a std::lock_guard to the fields it protects. These three
// wrappers close that gap: AnnotatedMutex is a CND_CAPABILITY the analysis
// tracks, MutexLock is the only sanctioned way to hold one (cnd_analyze's
// no-naked-mutex rule bans raw std::mutex/std::lock_guard outside this
// header), and CondVar waits through the MutexLock so the capability
// bookkeeping survives the sleep. The wrappers add zero overhead over the
// std primitives they delegate to; the annotations compile away entirely
// outside Clang (tensor/thread_annotations.hpp).
//
// Like the annotation macro header, this file is layer-neutral by declared
// exemption: src/obs (the bottom layer) guards its registries with it, so
// it must not itself depend on anything above the standard library.
//
// Condition-variable idiom: Clang's analysis cannot see that wait()
// releases and reacquires the mutex, so predicates must be written as
// explicit while-loops in the caller — where the analysis correctly treats
// the guarded fields as protected — never as wait(lock, pred) lambdas:
//
//   MutexLock lk(mutex_);
//   while (!ready_) cv_.wait(lk);   // ready_ is CND_GUARDED_BY(mutex_)
#pragma once

#include <condition_variable>  // cnd-analyze: allow(no-naked-mutex)
#include <mutex>

#include "tensor/thread_annotations.hpp"

namespace cnd::runtime {

/// std::mutex promoted to a Clang thread-safety capability. Fields guarded
/// by one declare it with CND_GUARDED_BY(that_mutex).
class CND_CAPABILITY("mutex") AnnotatedMutex {
 public:
  AnnotatedMutex() = default;
  AnnotatedMutex(const AnnotatedMutex&) = delete;
  AnnotatedMutex& operator=(const AnnotatedMutex&) = delete;

  void lock() CND_ACQUIRE() { mu_.lock(); }
  void unlock() CND_RELEASE() { mu_.unlock(); }
  bool try_lock() CND_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;  // cnd-analyze: allow(no-naked-mutex) — the wrapper's own storage
};

/// RAII lock over an AnnotatedMutex; the capability is held for the
/// object's whole lifetime. The lock()/unlock() pair exists only so
/// CondVar::wait can release and reacquire around the sleep — the lock is
/// always held again when wait returns, so the destructor's release is
/// unconditional.
class CND_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(AnnotatedMutex& mu) CND_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() CND_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // BasicLockable surface for CondVar::wait only.
  void lock() CND_ACQUIRE() { mu_.lock(); }
  void unlock() CND_RELEASE() { mu_.unlock(); }

 private:
  AnnotatedMutex& mu_;
};

/// Condition variable waiting through a MutexLock. wait() must be called
/// with the lock held and in a while-loop re-checking the guarded
/// predicate (see the header comment); notify_* never needs the lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `lock`, sleep until notified, reacquire. Spurious
  /// wakeups happen; callers loop on their predicate.
  void wait(MutexLock& lock) { cv_.wait(lock); }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;  // cnd-analyze: allow(no-naked-mutex) — the wrapper's own storage
};

}  // namespace cnd::runtime
