// Fixture corpus: ordinary core-layer code that must lint clean.
// cnd-analyze-path: src/core/clean_core.cpp
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"
#include "linalg/distance.hpp"

#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace cnd {

// Ordered containers iterate deterministically: fine to feed output.
double emit_sorted(const std::map<std::string, double>& scores) {
  double total = 0.0;
  for (const auto& [name, s] : scores) total += s;
  return total;
}

// Seeded repo RNG is the sanctioned randomness source.
double sample(Rng& rng) { return rng.normal(0.0, 1.0); }

// Bounded formatting is allowed (the *unbounded* sprintf is banned).
void format_row(char* buf, std::size_t n, double v) {
  std::snprintf(buf, n, "%.17g", v);
}

}  // namespace cnd
