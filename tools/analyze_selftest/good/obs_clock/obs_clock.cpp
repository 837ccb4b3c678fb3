// Fixture corpus: src/obs is the sanctioned home for clock reads.
// cnd-analyze-path: src/obs/obs_clock.cpp
#include <chrono>

namespace cnd::obs {

double now_ms() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(t).count();
}

}  // namespace cnd::obs
