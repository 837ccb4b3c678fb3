// Unit tests for the data utilities: replay buffer and contamination.
#include <gtest/gtest.h>

#include <set>

#include "data/contamination.hpp"
#include "data/replay_buffer.hpp"
#include "tensor/rng.hpp"

namespace cnd::data {
namespace {

// ---- replay buffer ----------------------------------------------------------

TEST(ReplayBuffer, FillsToCapacityThenHoldsSize) {
  ReplayBuffer buf(10);
  Matrix batch(7, 3, 1.0);
  buf.add(batch);
  EXPECT_EQ(buf.size(), 7u);
  buf.add(batch);
  EXPECT_EQ(buf.size(), 10u);
  buf.add(batch);
  EXPECT_EQ(buf.size(), 10u);
  EXPECT_EQ(buf.seen(), 21u);
}

TEST(ReplayBuffer, ReservoirIsApproximatelyUniform) {
  // Stream 1000 rows whose first feature is their index; with capacity 100
  // the mean kept index should be near the stream middle, not its start.
  ReplayBuffer buf(100, 99);
  for (std::size_t i = 0; i < 1000; ++i) {
    Matrix one(1, 1);
    one(0, 0) = static_cast<double>(i);
    buf.add(one);
  }
  double mean = 0.0;
  for (std::size_t i = 0; i < buf.size(); ++i) mean += buf.data()(i, 0);
  mean /= static_cast<double>(buf.size());
  EXPECT_NEAR(mean, 500.0, 120.0);
}

TEST(ReplayBuffer, SampleSizesClamped) {
  ReplayBuffer buf(5);
  buf.add(Matrix(3, 2, 1.0));
  Rng rng(1);
  EXPECT_EQ(buf.sample(10, rng).rows(), 3u);
  EXPECT_EQ(buf.sample(2, rng).rows(), 2u);
}

TEST(ReplayBuffer, RejectsMisuse) {
  EXPECT_THROW(ReplayBuffer(0), std::invalid_argument);
  ReplayBuffer buf(4);
  Rng rng(2);
  EXPECT_THROW(buf.sample(1, rng), std::invalid_argument);  // empty
  buf.add(Matrix(2, 3, 0.0));
  EXPECT_THROW(buf.add(Matrix(1, 2, 0.0)), std::invalid_argument);  // width
}

// ---- contamination ----------------------------------------------------------

TEST(Contaminate, ReplacesRequestedFraction) {
  Rng rng(3);
  Matrix clean(100, 2, 0.0);
  Matrix attacks(10, 2, 9.0);
  std::vector<std::size_t> poisoned;
  Matrix out = contaminate(clean, attacks, 0.2, rng, &poisoned);
  EXPECT_EQ(poisoned.size(), 20u);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < out.rows(); ++i) changed += (out(i, 0) == 9.0);
  EXPECT_EQ(changed, 20u);
  // Poisoned indices are distinct.
  std::set<std::size_t> uniq(poisoned.begin(), poisoned.end());
  EXPECT_EQ(uniq.size(), poisoned.size());
}

TEST(Contaminate, ZeroFractionIsIdentity) {
  Rng rng(4);
  Matrix clean(20, 2, 1.5);
  Matrix attacks(5, 2, 9.0);
  Matrix out = contaminate(clean, attacks, 0.0, rng);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(out(i, 0), 1.5);
}

}  // namespace
}  // namespace cnd::data
