// Unit tests for the drift detectors and the streaming CND-IDS wrapper.
#include <gtest/gtest.h>

#include <bit>
#include <limits>

#include "core/streaming_cnd_ids.hpp"
#include "ml/drift_detector.hpp"
#include "obs/metrics.hpp"
#include "tensor/rng.hpp"

namespace cnd {
namespace {

// ---- Page-Hinkley -----------------------------------------------------------

// Page-Hinkley consumes low-variance statistics (the streaming wrapper feeds
// it batch means); lambda is calibrated against that scale.

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

// ---- WindowShiftDetector ----------------------------------------------------

TEST(WindowShift, SilentOnStationaryStream) {
  Rng rng(4);
  ml::WindowShiftDetector det(32, 4.0);
  int alarms = 0;
  for (int i = 0; i < 2000; ++i) alarms += det.update(rng.normal());
  EXPECT_LE(alarms, 2);  // rare false alarms tolerated at 4 sigma
}

TEST(WindowShift, DetectsStepChange) {
  Rng rng(5);
  ml::WindowShiftDetector det(32, 3.0);
  for (int i = 0; i < 100; ++i) ASSERT_FALSE(det.update(rng.normal(0.0, 0.5)));
  bool fired = false;
  for (int i = 0; i < 100 && !fired; ++i) fired = det.update(rng.normal(3.0, 0.5));
  EXPECT_TRUE(fired);
}

// ---- StreamingCndIds --------------------------------------------------------

core::StreamingConfig fast_stream_cfg() {
  core::StreamingConfig c;
  c.detector.cfe.hidden_dim = 32;
  c.detector.cfe.latent_dim = 16;
  c.detector.cfe.epochs = 3;
  c.detector.cfe.kmeans_k = 3;
  c.min_buffer_rows = 64;
  c.max_buffer_rows = 256;
  return c;
}

Matrix gaussian_batch(Rng& rng, std::size_t n, std::size_t d, double shift = 0.0) {
  Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < d; ++j)
      x(i, j) = rng.normal(j == 0 ? shift : 0.0, 1.0);
  return x;
}

TEST(StreamingCndIds, RequiresBootstrap) {
  // Misuse of the API (scoring before the detector exists) is a logic
  // error, distinct from the invalid_argument a malformed batch raises.
  core::StreamingCndIds mon(fast_stream_cfg());
  EXPECT_THROW(mon.process_batch(Matrix(4, 5, 0.0)), std::logic_error);
  EXPECT_THROW((void)mon.buffered(), std::logic_error);
  core::StreamBatchResult out;
  EXPECT_THROW(mon.process_batch_into(Matrix(4, 5, 0.0), out), std::logic_error);
}

TEST(StreamingCndIds, ScoresEveryBatchAndCountsFlows) {
  Rng rng(6);
  core::StreamingCndIds mon(fast_stream_cfg());
  mon.bootstrap(gaussian_batch(rng, 128, 5));
  std::size_t flows = 0;
  for (int b = 0; b < 5; ++b) {
    Matrix batch = gaussian_batch(rng, 32, 5);
    auto res = mon.process_batch(batch);
    EXPECT_EQ(res.scores.size(), 32u);
    EXPECT_EQ(res.verdicts.size(), 32u);
    flows += 32;
  }
  EXPECT_EQ(mon.flows_seen(), flows);
}

TEST(StreamingCndIds, BufferCapForcesAdaptation) {
  Rng rng(7);
  core::StreamingCndIds mon(fast_stream_cfg());  // cap 256
  mon.bootstrap(gaussian_batch(rng, 128, 5));
  std::size_t adaptations = 0;
  for (int b = 0; b < 20; ++b)
    adaptations += mon.process_batch(gaussian_batch(rng, 32, 5)).adapted;
  // 20 batches x 32 rows = 640 rows -> at least 2 cap-triggered adaptations.
  EXPECT_GE(adaptations, 2u);
  EXPECT_EQ(mon.adaptations(), adaptations);
  EXPECT_LT(mon.buffered(), 256u);
}

TEST(StreamingCndIds, AttackWaveRaisesAlarmRate) {
  Rng rng(8);
  // Freeze adaptation for this test (huge cap, insensitive drift detector):
  // adapting mid-wave would recalibrate the threshold on contaminated
  // scores, which is its own scenario (see DriftTriggersEarlyAdaptation).
  core::StreamingConfig cfg = fast_stream_cfg();
  cfg.max_buffer_rows = 1 << 20;
  cfg.ph_lambda = 1e9;
  core::StreamingCndIds mon(cfg);
  mon.bootstrap(gaussian_batch(rng, 192, 5));

  std::size_t normal_alarms = 0, attack_alarms = 0, n_normal = 0, n_attack = 0;
  for (int b = 0; b < 4; ++b) {
    auto res = mon.process_batch(gaussian_batch(rng, 48, 5));
    for (int v : res.verdicts) normal_alarms += static_cast<std::size_t>(v);
    n_normal += 48;
  }
  for (int b = 0; b < 4; ++b) {
    // Attack wave: large shift across several features.
    Matrix wave = gaussian_batch(rng, 48, 5);
    for (std::size_t i = 0; i < wave.rows(); ++i) {
      auto r = wave.row(i);
      for (std::size_t j = 0; j < 3; ++j) r[j] += 9.0;
    }
    auto res = mon.process_batch(wave);
    for (int v : res.verdicts) attack_alarms += static_cast<std::size_t>(v);
    n_attack += 48;
  }
  const double fpr = static_cast<double>(normal_alarms) / static_cast<double>(n_normal);
  const double tpr = static_cast<double>(attack_alarms) / static_cast<double>(n_attack);
  EXPECT_LT(fpr, 0.2);
  EXPECT_GT(tpr, 0.6);
}

TEST(StreamingCndIds, DriftTriggersEarlyAdaptation) {
  Rng rng(9);
  core::StreamingConfig cfg = fast_stream_cfg();
  cfg.max_buffer_rows = 100000;  // cap effectively off: only drift can trigger
  cfg.ph_lambda = 4.0;
  core::StreamingCndIds mon(cfg);
  mon.bootstrap(gaussian_batch(rng, 192, 5));

  for (int b = 0; b < 3; ++b) mon.process_batch(gaussian_batch(rng, 48, 5));
  EXPECT_EQ(mon.adaptations(), 0u);
  // Sustained covariate shift in the stream (all rows move): mean score
  // jumps, Page-Hinkley fires, adaptation runs.
  bool adapted = false;
  for (int b = 0; b < 20 && !adapted; ++b) {
    Matrix shifted = gaussian_batch(rng, 48, 5);
    for (std::size_t i = 0; i < shifted.rows(); ++i)
      for (auto& v : shifted.row(i)) v += 4.0;
    adapted = mon.process_batch(shifted).adapted;
  }
  EXPECT_TRUE(adapted);
}

// Rows of splice_nonfinite's output that carry a NaN, +Inf and -Inf feature.
constexpr std::size_t kPoisonAt[] = {1, 9, 17};

/// `clean` with three poisoned rows spliced in at kPoisonAt: each is a copy
/// of the next clean row with feature k set to NaN, +Inf or -Inf.
Matrix splice_nonfinite(const Matrix& clean) {
  const double poison[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  Matrix out(clean.rows() + 3, clean.cols());
  for (std::size_t i = 0, src = 0, k = 0; i < out.rows(); ++i) {
    if (k < 3 && i == kPoisonAt[k]) {
      out.set_row(i, clean.row(src));
      out(i, k) = poison[k];
      ++k;
    } else {
      out.set_row(i, clean.row(src++));
    }
  }
  return out;
}

void expect_bits_equal(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << a << " vs " << b;
}

TEST(StreamingCndIds, NonFiniteFlowsFailClosedAndStayOutOfAdaptation) {
  Rng rng(12);
  const Matrix n_clean = gaussian_batch(rng, 128, 5);
  const Matrix clean = gaussian_batch(rng, 32, 5);
  const Matrix poisoned = splice_nonfinite(clean);
  core::StreamingCndIds ref(fast_stream_cfg()), mon(fast_stream_cfg());
  ref.bootstrap(n_clean);
  mon.bootstrap(n_clean);

  const obs::Counter& nonfinite = obs::metrics().counter("stream.nonfinite_total");
  const std::uint64_t before = nonfinite.value();
  const auto want = ref.process_batch(clean);
  const auto got = mon.process_batch(poisoned);
  EXPECT_EQ(nonfinite.value() - before, 3u);
  // The poisoned flows alarm; the finite ones score as if they were absent.
  for (std::size_t i = 0, j = 0, k = 0; i < poisoned.rows(); ++i) {
    if (k < 3 && i == kPoisonAt[k]) {
      EXPECT_EQ(got.verdicts[i], 1) << "poisoned row " << i;
      ++k;
      continue;
    }
    expect_bits_equal(got.scores[i], want.scores[j]);
    EXPECT_EQ(got.verdicts[i], want.verdicts[j]);
    ++j;
  }

  // The poison reached neither the buffer nor the drift mean: the two
  // monitors stay in lockstep through the next adaptation round.
  EXPECT_EQ(mon.buffered(), ref.buffered());
  EXPECT_EQ(got.drift_signal, want.drift_signal);
  for (int b = 0; b < 10; ++b) {
    const Matrix batch = gaussian_batch(rng, 32, 5, 0.5);
    const auto r = ref.process_batch(batch);
    const auto m = mon.process_batch(batch);
    EXPECT_EQ(m.adapted, r.adapted);
    for (std::size_t i = 0; i < r.scores.size(); ++i)
      expect_bits_equal(m.scores[i], r.scores[i]);
  }
  EXPECT_GE(ref.adaptations(), 1u);
  EXPECT_EQ(mon.adaptations(), ref.adaptations());
}

TEST(StreamingCndIds, RejectsBadConfig) {
  core::StreamingConfig bad = fast_stream_cfg();
  bad.min_buffer_rows = 8;
  EXPECT_THROW(core::StreamingCndIds{bad}, std::invalid_argument);
  core::StreamingConfig bad2 = fast_stream_cfg();
  bad2.max_buffer_rows = 32;
  EXPECT_THROW(core::StreamingCndIds{bad2}, std::invalid_argument);
}

}  // namespace
}  // namespace cnd
