// cnd-analyze-path: src/core/naked_mutex.cpp
// cnd-analyze-expect: no-naked-mutex
// A raw std::mutex + std::lock_guard pair: invisible to -Wthread-safety and
// to cnd_analyze's lock-order/wait-free rules. Must go through the annotated
// wrappers in runtime/annotated_mutex.hpp.

namespace cnd::core {

struct Tally {
  std::mutex mu;
  long total = 0;

  void add(long v) {
    std::lock_guard<std::mutex> lk(mu);
    total += v;
  }
};

}  // namespace cnd::core
