// Fixture corpus (known-bad).
// cnd-analyze-expect: no-float
// cnd-analyze-path: src/linalg/float_accum.cpp
#include <cstddef>
#include <vector>

namespace cnd {

// The bit-exactness contract is stated for double accumulation; a float
// accumulator rounds differently depending on vectorisation and order.
double lossy_sum(const std::vector<double>& xs) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < xs.size(); ++i) acc += static_cast<float>(xs[i]);
  return acc;
}

}  // namespace cnd
