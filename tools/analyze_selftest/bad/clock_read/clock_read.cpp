// Fixture corpus (known-bad).
// cnd-analyze-expect: no-clock
// cnd-analyze-path: src/core/clock_read.cpp
#include <chrono>

namespace cnd {

// Clock reads outside src/obs, including through a type alias.
double naughty_elapsed() {
  using clock = std::chrono::high_resolution_clock;
  const auto t0 = clock::now();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace cnd
