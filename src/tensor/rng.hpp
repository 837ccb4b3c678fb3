// Seeded random number generation.
//
// All stochastic components (weight init, K-Means++, data generators,
// isolation forests, triplet sampling) draw from a cnd::Rng so that every
// experiment in the repository is reproducible from a single seed.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace cnd {

/// Thin, copyable wrapper around std::mt19937_64 with the distributions the
/// library needs. Copy a parent Rng (or use `split`) to give a component an
/// independent, deterministic stream.
///
/// Every distribution is implemented here with a portable, pinned algorithm
/// (53-bit uniform, Box–Muller normal, Lemire bounded integers, inverse-CDF
/// exponential, Marsaglia–Tsang gamma) on top of the raw mt19937_64 word
/// stream. The std::*_distribution adapters are deliberately NOT used: their
/// algorithms are implementation-defined, so the same seed yields different
/// streams on libstdc++ vs libc++ and every downstream table would become
/// toolchain-dependent. tests/test_rng.cpp pins the exact first draws of
/// each distribution; tools/cnd_analyze (rng-confinement) keeps std
/// distributions from creeping back in anywhere else.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5EED'CAFEULL) : gen_(seed) {}

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal (mean 0, stddev 1) scaled to (mean, stddev).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t randint(std::int64_t lo, std::int64_t hi);

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p);

  /// Exponential with rate lambda (> 0).
  double exponential(double lambda);

  /// Student-t-like heavy tail: normal / sqrt(chi2/df). Used by the flow
  /// generators to model bursty network features.
  double heavy_tail(double df);

  /// Sample an index according to non-negative weights (need not sum to 1).
  std::size_t categorical(const std::vector<double>& weights);

  /// In-place Fisher–Yates shuffle of an index vector.
  void shuffle(std::vector<std::size_t>& idx);

  /// Random permutation of [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Derive an independent child stream; deterministic in (current state, salt).
  Rng split(std::uint64_t salt);

  /// One raw 64-bit engine word, the unit every draw above consumes (the
  /// RngGolden tests pin these words). Prefer split() for child streams.
  std::uint64_t draw_u64();

 private:
  /// Gamma(shape alpha, scale 1) via Marsaglia–Tsang; building block for
  /// heavy_tail's chi-squared draw.
  double gamma(double alpha);

  std::mt19937_64 gen_;
};

}  // namespace cnd
