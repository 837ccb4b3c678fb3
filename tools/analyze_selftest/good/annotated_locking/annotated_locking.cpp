// cnd-analyze-path: src/core/annotated_locking.cpp
// Locking through the annotated wrappers: the sanctioned idiom, plus the
// escape hatch for a vetted interop site (e.g. handing a native handle to a
// third-party API).

#include "runtime/annotated_mutex.hpp"

namespace cnd::core {

struct Tally {
  runtime::AnnotatedMutex mu;
  long total CND_GUARDED_BY(mu) = 0;

  void add(long v) {
    runtime::MutexLock lk(mu);
    total += v;
  }
};

// cnd-analyze: allow(no-naked-mutex) — vetted interop: external API wants the raw type
using NativeMutex = std::mutex;

}  // namespace cnd::core
