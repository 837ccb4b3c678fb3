// Unit tests for the Page-Hinkley drift detector.
#include <gtest/gtest.h>

#include "ml/drift_detector.hpp"
#include "tensor/rng.hpp"

namespace cnd {
namespace {

// Page-Hinkley consumes low-variance statistics (the Adaptive drift gate
// feeds it chunk-mean score ratios); lambda is calibrated against that scale.

TEST(PageHinkley, SilentOnStationaryStream) {
  Rng rng(1);
  ml::PageHinkley ph(0.05, 50.0);
  for (int i = 0; i < 5000; ++i) EXPECT_FALSE(ph.update(rng.normal(0.0, 0.1)));
}

TEST(PageHinkley, DetectsUpwardShift) {
  Rng rng(2);
  ml::PageHinkley ph(0.05, 20.0);
  for (int i = 0; i < 200; ++i) ASSERT_FALSE(ph.update(rng.normal(0.0, 0.1)));
  bool fired = false;
  for (int i = 0; i < 300 && !fired; ++i) fired = ph.update(rng.normal(2.0, 0.1));
  EXPECT_TRUE(fired);
}

TEST(PageHinkley, ResetsAfterSignal) {
  // PH measures shifts relative to the stream's own history: establish a
  // baseline, then shift; after the alarm the detector state is fresh.
  Rng rng(3);
  ml::PageHinkley ph(0.0, 5.0, 8);
  for (int i = 0; i < 50; ++i) ASSERT_FALSE(ph.update(rng.normal(0.0, 0.1)));
  bool fired = false;
  for (int i = 0; i < 200 && !fired; ++i) fired = ph.update(rng.normal(1.0, 0.1));
  ASSERT_TRUE(fired);
  EXPECT_EQ(ph.n_seen(), 0u);
}

TEST(PageHinkley, RejectsBadConfig) {
  EXPECT_THROW(ml::PageHinkley(0.1, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace cnd
