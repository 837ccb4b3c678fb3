// Fixture corpus: the documented seed plumbing may own a raw
// engine — this path is the one exemption for no-raw-rng and
// no-std-distribution.
// cnd-analyze-path: src/tensor/rng.hpp
#pragma once

#include <cstdint>
#include <random>

namespace cnd {

class FakeRng {
 public:
  explicit FakeRng(std::uint64_t seed) : engine_(seed) {}

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace cnd
