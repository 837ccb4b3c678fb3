// Fixture corpus (known-bad).
// cnd-analyze-expect: rng-confinement
// cnd-analyze-path: src/ml/raw_rng.cpp
#include <cstdlib>
#include <random>

namespace cnd {

// Unseeded/device randomness breaks run-to-run reproducibility.
double bad_sample() {
  std::random_device rd;
  std::mt19937 gen(rd());
  return static_cast<double>(std::rand()) / RAND_MAX;
}

}  // namespace cnd
