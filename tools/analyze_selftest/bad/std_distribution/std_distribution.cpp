// Fixture corpus (known-bad).
// cnd-analyze-expect: rng-confinement
// cnd-analyze-path: src/ml/std_distribution.cpp
#include <random>

namespace cnd {

// The adapter's algorithm is implementation-defined: the same seed draws
// different values under libstdc++ vs libc++. Portable draws live in
// cnd::Rng (src/tensor/rng.cpp).
double bad_normal(unsigned long long& state) {
  std::normal_distribution<double> dist(0.0, 1.0);
  (void)dist;
  return static_cast<double>(state) * 0.0;
}

}  // namespace cnd
