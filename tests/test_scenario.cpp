// Scenario generators (src/scenario) and the adaptive-trigger detector:
// registry behavior, stream shapes, and the determinism contract — every
// scenario replays bit-identically from a fixed seed at 1 and 4 threads.
#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>

#include "core/adaptive_cnd_ids.hpp"
#include "core/detector_factory.hpp"
#include "data/synth.hpp"
#include "runtime/thread_pool.hpp"

namespace cnd::scenario {
namespace {

data::Dataset small_dataset() { return data::make_unsw_nb15(11, 0.08); }

ScenarioOptions small_options() {
  ScenarioOptions opt;
  opt.n_experiences = 3;
  opt.seed = 5;
  return opt;
}

bool same_matrix(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

bool same_set(const data::ExperienceSet& a, const data::ExperienceSet& b) {
  if (!same_matrix(a.n_clean, b.n_clean) || a.size() != b.size()) return false;
  for (std::size_t e = 0; e < a.size(); ++e) {
    const data::Experience& x = a.experiences[e];
    const data::Experience& y = b.experiences[e];
    if (!same_matrix(x.x_train, y.x_train) || !same_matrix(x.x_test, y.x_test) ||
        x.y_test != y.y_test || x.test_class != y.test_class ||
        x.attack_classes_here != y.attack_classes_here)
      return false;
  }
  return true;
}

TEST(ScenarioRegistry, NamesAndUnknown) {
  const std::vector<std::string> names = scenario_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string& n : names) {
    auto s = make_scenario(n);
    EXPECT_EQ(s->name(), n);
    EXPECT_FALSE(s->summary().empty());
  }
  try {
    make_scenario("nope");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("domain-incremental"),
              std::string::npos);
  }
}

TEST(ScenarioRegistry, RejectsBadOptions) {
  ScenarioOptions opt = small_options();
  opt.max_contamination = 1.0;
  const data::Dataset ds = small_dataset();
  EXPECT_THROW(make_scenario("contamination-ramp")->build(ds, opt),
               std::invalid_argument);
  opt = small_options();
  opt.n_experiences = 1;
  EXPECT_THROW(make_scenario("class-incremental")->build(ds, opt),
               std::invalid_argument);
}

TEST(Scenario, ShapesAreCoherent) {
  const data::Dataset ds = small_dataset();
  const ScenarioOptions opt = small_options();
  for (const std::string& name : scenario_names()) {
    const data::ExperienceSet es = make_scenario(name)->build(ds, opt);
    EXPECT_EQ(es.size(), opt.n_experiences) << name;
    EXPECT_GT(es.n_clean.rows(), 0u) << name;
    for (const data::Experience& e : es.experiences) {
      EXPECT_GT(e.x_train.rows(), 0u) << name;
      EXPECT_EQ(e.x_test.rows(), e.y_test.size()) << name;
      EXPECT_EQ(e.y_test.size(), e.test_class.size()) << name;
      EXPECT_EQ(e.x_train.cols(), es.n_clean.cols()) << name;
    }
  }
}

TEST(Scenario, ClassIncrementalMatchesPaperProtocol) {
  // The class-incremental scenario IS the paper's §III-A preparation.
  const data::Dataset ds = small_dataset();
  const ScenarioOptions opt = small_options();
  const data::ExperienceSet from_scenario =
      make_scenario("class-incremental")->build(ds, opt);
  const data::ExperienceSet direct = data::prepare_experiences(
      ds, {.n_experiences = opt.n_experiences, .clean_frac = opt.clean_frac,
           .train_frac = opt.train_frac, .standardize = true,
           .seed = opt.seed});
  EXPECT_TRUE(same_set(from_scenario, direct));
}

TEST(Scenario, SpreadPartitionPutsFamiliesEverywhere) {
  const data::Dataset ds = small_dataset();
  const data::ExperienceSet es =
      make_scenario("domain-incremental")->build(ds, small_options());
  std::set<int> seen;
  for (const data::Experience& e : es.experiences) {
    EXPECT_FALSE(e.attack_classes_here.empty());
    seen.insert(e.attack_classes_here.begin(), e.attack_classes_here.end());
  }
  EXPECT_EQ(seen.size(), ds.n_attack_classes());
  // Experience 0 already holds attacks AND normals in its test split: the
  // label space never changes, only the domain does.
  const std::vector<int>& y = es.experiences.front().y_test;
  EXPECT_NE(std::count(y.begin(), y.end(), 1), 0);
  EXPECT_NE(std::count(y.begin(), y.end(), 0), 0);
}

TEST(Scenario, DomainIncrementalShiftsLaterExperiences) {
  const data::Dataset ds = small_dataset();
  ScenarioOptions opt = small_options();
  const data::ExperienceSet drifted =
      make_scenario("domain-incremental")->build(ds, opt);
  opt.drift_magnitude = 0.0;
  const data::ExperienceSet still =
      make_scenario("domain-incremental")->build(ds, opt);
  // Experience 0 sits at the origin in both; later experiences move.
  EXPECT_TRUE(same_matrix(drifted.experiences[0].x_test,
                          still.experiences[0].x_test));
  for (std::size_t e = 1; e < drifted.size(); ++e) {
    double max_abs = 0.0;
    const Matrix& a = drifted.experiences[e].x_test;
    const Matrix& b = still.experiences[e].x_test;
    ASSERT_EQ(a.rows(), b.rows());
    for (std::size_t r = 0; r < a.rows(); ++r)
      for (std::size_t c = 0; c < a.cols(); ++c)
        max_abs = std::max(max_abs, std::abs(a(r, c) - b(r, c)));
    EXPECT_GT(max_abs, 0.0) << "experience " << e;
  }
}

TEST(Scenario, RecurringRegimeAlternates) {
  const data::Dataset ds = small_dataset();
  ScenarioOptions opt = small_options();
  const data::ExperienceSet rec =
      make_scenario("task-free-recurring")->build(ds, opt);
  opt.drift_magnitude = 0.0;
  const data::ExperienceSet still =
      make_scenario("task-free-recurring")->build(ds, opt);
  // Even experiences are regime A (unshifted), odd ones regime B.
  for (std::size_t e = 0; e < rec.size(); ++e) {
    const bool same = same_matrix(rec.experiences[e].x_test,
                                  still.experiences[e].x_test);
    EXPECT_EQ(same, e % 2 == 0) << "experience " << e;
  }
}

TEST(Scenario, ContaminationRampLeavesTestAndFirstTrainAlone) {
  const data::Dataset ds = small_dataset();
  const ScenarioOptions opt = small_options();
  const data::ExperienceSet ramp =
      make_scenario("contamination-ramp")->build(ds, opt);
  const data::ExperienceSet clean =
      make_scenario("class-incremental")->build(ds, opt);
  // Experience 0 has ramp share 0, and test splits are never contaminated.
  EXPECT_TRUE(same_matrix(ramp.experiences[0].x_train,
                          clean.experiences[0].x_train));
  for (std::size_t e = 0; e < ramp.size(); ++e)
    EXPECT_TRUE(same_matrix(ramp.experiences[e].x_test,
                            clean.experiences[e].x_test))
        << "experience " << e;
  // The last experience's training stream did change.
  EXPECT_FALSE(same_matrix(ramp.experiences.back().x_train,
                           clean.experiences.back().x_train));
}

TEST(Scenario, ReplaysBitIdenticallyAcrossThreadCounts) {
  const data::Dataset ds = small_dataset();
  const ScenarioOptions opt = small_options();
  const std::size_t before = runtime::threads();
  for (const std::string& name : scenario_names()) {
    runtime::set_threads(1);
    const data::ExperienceSet t1 = make_scenario(name)->build(ds, opt);
    runtime::set_threads(4);
    const data::ExperienceSet t4 = make_scenario(name)->build(ds, opt);
    EXPECT_TRUE(same_set(t1, t4)) << name << " differs between 1 and 4 threads";

    ScenarioOptions other = opt;
    other.seed = opt.seed + 1;
    const data::ExperienceSet reseeded = make_scenario(name)->build(ds, other);
    EXPECT_FALSE(same_set(t1, reseeded)) << name << " ignores the seed";
  }
  runtime::set_threads(before);
}

TEST(AdaptiveDetector, RegisteredWithDescription) {
  const std::vector<std::string> names = core::detector_names();
  EXPECT_EQ(names.size(), 13u);
  EXPECT_NE(std::find(names.begin(), names.end(), "Adaptive"), names.end());
  EXPECT_EQ(core::detector_kind("Adaptive"), core::DetectorKind::kContinual);
  EXPECT_NE(core::detector_description("Adaptive").find("Page-Hinkley"),
            std::string::npos);
  for (const std::string& n : names)
    EXPECT_FALSE(core::detector_description(n).empty()) << n;
}

TEST(AdaptiveDetector, SkipsStableStreamsAndRefitsOnDrift) {
  // Train on a tight blob, then feed the same distribution (should skip)
  // and a strongly shifted one (should refit).
  Rng rng(3);
  const auto blob = [&](double mean, std::size_t rows) {
    Matrix x(rows, 6);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < 6; ++c) x(r, c) = rng.normal(mean, 1.0);
    return x;
  };
  const Matrix n_clean = blob(0.0, 128);
  const Matrix stream_same = blob(0.0, 512);
  const Matrix stream_shifted = blob(8.0, 512);

  core::CndIdsConfig det;
  det.cfe.hidden_dim = 16;
  det.cfe.latent_dim = 8;
  det.cfe.epochs = 2;
  det.cfe.kmeans_k = 2;
  core::AdaptiveCndIds adaptive(det);
  Matrix seed_x;
  std::vector<int> seed_y;
  adaptive.setup(core::SetupContext{n_clean, seed_x, seed_y});

  adaptive.observe_experience(blob(0.0, 512));  // bootstrap: always fits
  EXPECT_EQ(adaptive.updates(), 1u);
  adaptive.observe_experience(stream_same);
  EXPECT_EQ(adaptive.updates(), 1u);
  EXPECT_EQ(adaptive.skips(), 1u);
  adaptive.observe_experience(stream_shifted);
  EXPECT_EQ(adaptive.updates(), 2u);
  EXPECT_EQ(adaptive.drift_signals(), 1u);

  const std::vector<double> scores = adaptive.score(n_clean);
  EXPECT_EQ(scores.size(), n_clean.rows());
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

}  // namespace
}  // namespace cnd::scenario
