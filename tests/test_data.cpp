// Unit tests for the data layer: Dataset, flow generator, the four synthetic
// dataset constructors, CSV I/O, and the §III-A experience preparation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>

#include "data/csv.hpp"
#include "data/experiences.hpp"
#include "data/flow_generator.hpp"
#include "data/synth.hpp"
#include "linalg/stats.hpp"

namespace cnd::data {
namespace {

TEST(Dataset, ValidateCatchesInconsistency) {
  Dataset ds;
  ds.x = Matrix(2, 2);
  ds.y = {0, 1};
  ds.attack_class = {-1, 0};
  ds.class_names = {"a"};
  EXPECT_NO_THROW(ds.validate());

  Dataset bad = ds;
  bad.attack_class = {0, 0};  // normal row with a class id
  EXPECT_THROW(bad.validate(), std::logic_error);

  Dataset bad2 = ds;
  bad2.attack_class = {-1, 5};  // out-of-range class
  EXPECT_THROW(bad2.validate(), std::logic_error);
}

TEST(Dataset, TakePreservesLabels) {
  Dataset ds;
  ds.x = Matrix{{1, 1}, {2, 2}, {3, 3}};
  ds.y = {0, 1, 0};
  ds.attack_class = {-1, 0, -1};
  ds.class_names = {"dos"};
  Dataset sub = ds.take({1, 2});
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.y[0], 1);
  EXPECT_EQ(sub.attack_class[0], 0);
  EXPECT_EQ(sub.x(0, 0), 2.0);
}

TEST(FlowGenerator, ProfilesAreSeparated) {
  Rng rng(1);
  FlowGenerator gen(10, 3, 0.5, rng);
  const auto normal = gen.add_profile("normal", 0.0, 1.0, 0.0, 0.0, 0.0, 0.5, 0.0, rng);
  const auto attack = gen.add_profile("attack", 10.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, rng);
  Matrix xn = gen.sample(normal, 100, 0.0, rng);
  Matrix xa = gen.sample(attack, 100, 0.0, rng);
  auto mn = col_mean(xn);
  auto ma = col_mean(xa);
  // The means must be far apart relative to the noise.
  EXPECT_GT(std::sqrt(sq_dist(mn, ma)), 5.0);
}

TEST(FlowGenerator, DriftMovesTheMean) {
  Rng rng(2);
  FlowGenerator gen(8, 2, 0.3, rng);
  const auto p = gen.add_profile("drifty", 0.0, 0.5, 0.0, /*drift=*/4.0, 0.0, 0.5, 0.0, rng);
  Matrix early = gen.sample(p, 300, 0.0, rng);
  Matrix late = gen.sample(p, 300, 1.0, rng);
  auto me = col_mean(early);
  auto ml = col_mean(late);
  EXPECT_NEAR(std::sqrt(sq_dist(me, ml)), 4.0, 1.0);
}

TEST(FlowGenerator, CorrelatedFeatures) {
  Rng rng(3);
  FlowGenerator gen(6, 1, 0.8, rng);  // rank-1 mixing dominating the noise
  const auto p = gen.add_profile("corr", 0.0, 0.2, 0.0, 0.0, 0.0, 0.5, 0.0, rng);
  Matrix x = gen.sample(p, 500, 0.0, rng);
  double max_corr = 0.0;
  for (std::size_t a = 0; a < 6; ++a)
    for (std::size_t b = a + 1; b < 6; ++b)
      max_corr = std::max(max_corr,
                          std::abs(linalg::pearson(x.col_vec(a), x.col_vec(b))));
  EXPECT_GT(max_corr, 0.8);
}

TEST(FlowGenerator, SubspaceShiftChangesCovarianceNotMean) {
  Rng rng(4);
  FlowGenerator gen(8, 3, 1.0, rng);
  const auto base = gen.add_profile("base", 0.0, 0.5, 0.0, 0.0, 0.0, 0.5, 0.0, rng);
  const auto shifted = gen.add_profile("shifted", 0.0, 0.5, 0.0, 0.0, 1.0, 0.5, 0.0, rng);
  Matrix xb = gen.sample(base, 800, 0.0, rng);
  Matrix xs = gen.sample(shifted, 800, 0.0, rng);
  // Means coincide (both at the origin)...
  EXPECT_LT(std::sqrt(sq_dist(col_mean(xb), col_mean(xs))), 1.0);
  // ...but the covariance structure differs measurably.
  Matrix cb = linalg::covariance(xb);
  Matrix cs = linalg::covariance(xs);
  EXPECT_GT(frobenius_sq(cb - cs), 1.0);
}

TEST(Synth, PaperDatasetShapesMatchTableI) {
  const Dataset xiiot = make_x_iiotid(1);
  EXPECT_EQ(xiiot.n_attack_classes(), 18u);
  EXPECT_GT(static_cast<double>(xiiot.n_normals()),
            static_cast<double>(xiiot.n_attacks()) * 0.9);  // ~51/49 split

  const Dataset wustl = make_wustl_iiot(1);
  EXPECT_EQ(wustl.n_attack_classes(), 4u);
  // WUSTL is ~7% attack.
  const double attack_frac = static_cast<double>(wustl.n_attacks()) /
                             static_cast<double>(wustl.size());
  EXPECT_LT(attack_frac, 0.12);
  EXPECT_GT(attack_frac, 0.03);

  const Dataset cicids = make_cicids2017(1);
  EXPECT_EQ(cicids.n_attack_classes(), 15u);

  const Dataset unsw = make_unsw_nb15(1);
  EXPECT_EQ(unsw.n_attack_classes(), 10u);
  EXPECT_EQ(unsw.n_features(), 40u);

  // Table I's attack shares hold below the 64-row floor too: at these scales
  // WUSTL-IIoT and CICIDS2017 have fewer than 64 attacks before the floor.
  const double paper_attack_frac[] = {399417.0 / 820502.0, 87016.0 / 1194464.0,
                                      557646.0 / 2830743.0, 93000.0 / 257673.0};
  for (double scale : {1.0, 0.05, 0.02}) {
    SCOPED_TRACE(scale);
    const std::vector<Dataset> all = make_all_paper_datasets(1, scale);
    ASSERT_EQ(all.size(), 4u);
    for (std::size_t i = 0; i < all.size(); ++i) {
      SCOPED_TRACE(all[i].name);
      EXPECT_GE(std::min(all[i].n_normals(), all[i].n_attacks()), 64u);
      const double frac = static_cast<double>(all[i].n_attacks()) /
                          static_cast<double>(all[i].size());
      EXPECT_NEAR(frac, paper_attack_frac[i], 0.01);
    }
  }
}

TEST(Synth, DeterministicGivenSeed) {
  const Dataset a = make_unsw_nb15(7, 0.2);
  const Dataset b = make_unsw_nb15(7, 0.2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 97)
    for (std::size_t j = 0; j < a.n_features(); ++j)
      EXPECT_DOUBLE_EQ(a.x(i, j), b.x(i, j));
}

TEST(Synth, EveryAttackClassPresent) {
  const Dataset ds = make_cicids2017(3, 0.3);
  std::set<int> seen;
  for (int c : ds.attack_class)
    if (c >= 0) seen.insert(c);
  EXPECT_EQ(seen.size(), 15u);
}

TEST(Synth, AllDatasetsValidate) {
  for (const auto& ds : make_all_paper_datasets(5, 0.15)) {
    EXPECT_NO_THROW(ds.validate());
    EXPECT_GT(ds.n_attacks(), 0u);
    EXPECT_GT(ds.n_normals(), 0u);
  }
}

TEST(Synth, RejectsNonFiniteOrNonPositiveScale) {
  for (const double scale : {-1.0, 0.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(scale);
    EXPECT_THROW(make_x_iiotid(1, scale), std::invalid_argument);
    EXPECT_THROW(make_wustl_iiot(1, scale), std::invalid_argument);
    EXPECT_THROW(make_cicids2017(1, scale), std::invalid_argument);
    EXPECT_THROW(make_unsw_nb15(1, scale), std::invalid_argument);
  }
}

TEST(Csv, RoundTrip) {
  Dataset ds = make_wustl_iiot(11, 0.05);
  const std::string path = "/tmp/cnd_test_roundtrip.csv";
  save_csv(ds, path);
  Dataset back = load_csv(path, ds.name);
  ASSERT_EQ(back.size(), ds.size());
  ASSERT_EQ(back.n_features(), ds.n_features());
  for (std::size_t i = 0; i < ds.size(); i += 53) {
    EXPECT_EQ(back.y[i], ds.y[i]);
    EXPECT_EQ(back.attack_class[i], ds.attack_class[i]);
    for (std::size_t j = 0; j < ds.n_features(); ++j)
      EXPECT_NEAR(back.x(i, j), ds.x(i, j), 1e-6);
  }
  std::remove(path.c_str());
}

// /dev/full accepts the open and fails every write with ENOSPC, as a full
// disk does; a writer must throw naming the path instead of returning.
TEST(Csv, SaveFailsOnAFullDisk) {
  if (!std::ofstream("/dev/full")) GTEST_SKIP() << "/dev/full is absent";
  // Small enough to stay in the stream's buffer until the file is closed.
  Dataset ds;
  ds.x = Matrix{{1, 2}, {3, 4}};
  ds.y = {0, 1};
  ds.attack_class = {-1, 0};
  ds.class_names = {"a"};
  try {
    save_csv(ds, "/dev/full");
    ADD_FAILURE() << "save_csv returned on a full disk";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos) << e.what();
  }
}

TEST(Csv, SaveTableFailsOnAFullDisk) {
  if (!std::ofstream("/dev/full")) GTEST_SKIP() << "/dev/full is absent";
  try {
    save_table_csv("/dev/full", {"variant", "avg"}, {{0.5}}, {"CND-IDS"});
    ADD_FAILURE() << "save_table_csv returned on a full disk";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos) << e.what();
  }
}

TEST(Csv, LoadRejectsMissingFile) {
  EXPECT_THROW(load_csv("/tmp/does_not_exist_cnd.csv"), std::invalid_argument);
}

// Writes `body` under a two-feature header to a file named after `tag`.
std::string write_csv(const std::string& tag, const std::string& body) {
  const std::string path = ::testing::TempDir() + "/cnd_csv_" + tag + ".csv";
  std::ofstream(path, std::ios::binary) << "f0,f1,label,attack_class\n" << body;
  return path;
}

// load_csv must throw std::invalid_argument naming the file, the line and
// `needle` for a file whose line 3 is bad.
void expect_rejected(const std::string& tag, const std::string& bad_line,
                     const std::string& needle) {
  const std::string path = write_csv(tag, "0.5,1.5,0,-1\n" + bad_line + "\n");
  try {
    load_csv(path);
    ADD_FAILURE() << "loaded " << bad_line;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path + ":3:"), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(Csv, RejectsTrailingJunkInFeature) {
  expect_rejected("junk", "0.3x,1,1,0", "'0.3x'");
  expect_rejected("empty_cell", ",1,1,0", "cell 1");
}

TEST(Csv, RejectsNonIntegerLabelOrClass) {
  expect_rejected("frac_label", "0.1,0.2,1.9,0", "'1.9'");
  expect_rejected("nan_label", "0.1,0.2,nan,0", "'nan'");
  expect_rejected("frac_class", "0.1,0.2,1,2.5", "'2.5'");
  expect_rejected("wide_class", "0.1,0.2,1,2147483648", "'2147483648'");
}

TEST(Csv, RejectsLabelOutsideZeroOne) {
  expect_rejected("label2", "0.1,0.2,2,0", "label 2");
  expect_rejected("label_neg", "0.1,0.2,-1,-1", "label -1");
}

TEST(Csv, RejectsClassThatContradictsLabel) {
  expect_rejected("normal_class", "0.1,0.2,0,3", "attack_class 3");
  expect_rejected("attack_no_class", "0.1,0.2,1,-1", "attack_class -1");
}

TEST(Csv, RejectsRowWiderThanHeader) {
  expect_rejected("wide_row", "0.1,0.2,1,0,7", "more cells");
}

TEST(Csv, RejectsAttackClassAboveCap) {
  expect_rejected("class1024", "0.1,0.2,1,1024", "attack_class 1024");
  expect_rejected("class2e6", "0.1,0.2,1,2000000", "attack_class 2000000");
  expect_rejected("classmax", "0.1,0.2,1,2147483647", "attack_class 2147483647");
}

TEST(Csv, LoadsCrlfLinesAndNonFiniteFeatures) {
  const std::string path =
      write_csv("crlf", "0.5,nan,0,-1\r\ninf,-2e3,1,1023\r\n\r\n-inf,4,1,0\r\n");
  const Dataset ds = load_csv(path);
  ASSERT_EQ(ds.size(), 3u);
  EXPECT_TRUE(std::isnan(ds.x(0, 1)));
  EXPECT_EQ(ds.x(1, 0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(ds.x(1, 1), -2000.0);
  EXPECT_EQ(ds.x(2, 0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(ds.y, (std::vector<int>{0, 1, 1}));
  EXPECT_EQ(ds.attack_class, (std::vector<int>{-1, 1023, 0}));
  EXPECT_EQ(ds.class_names.size(), 1024u);
  std::remove(path.c_str());
}

TEST(Experiences, ProtocolStructure) {
  const Dataset ds = make_unsw_nb15(13, 0.4);
  const PrepConfig cfg{.n_experiences = 5, .clean_frac = 0.10, .train_frac = 0.7};
  const ExperienceSet es = prepare_experiences(ds, cfg);

  EXPECT_EQ(es.size(), 5u);
  // N_c is ~10% of normal rows.
  EXPECT_NEAR(static_cast<double>(es.n_clean.rows()),
              0.10 * static_cast<double>(ds.n_normals()),
              static_cast<double>(ds.n_normals()) * 0.01 + 2.0);

  // Every attack family appears in exactly one experience.
  std::set<int> seen;
  std::size_t total_classes = 0;
  for (const auto& e : es.experiences) {
    for (int c : e.attack_classes_here) {
      EXPECT_TRUE(seen.insert(c).second) << "family in two experiences";
      ++total_classes;
    }
  }
  EXPECT_EQ(total_classes, ds.n_attack_classes());

  // Test labels match the family column, and both classes appear.
  for (const auto& e : es.experiences) {
    ASSERT_EQ(e.y_test.size(), e.x_test.rows());
    ASSERT_EQ(e.test_class.size(), e.x_test.rows());
    bool has_normal = false, has_attack = false;
    for (std::size_t i = 0; i < e.y_test.size(); ++i) {
      EXPECT_EQ(e.y_test[i], e.test_class[i] >= 0 ? 1 : 0);
      has_normal |= (e.y_test[i] == 0);
      has_attack |= (e.y_test[i] == 1);
    }
    EXPECT_TRUE(has_normal);
    EXPECT_TRUE(has_attack);
    // Train/test proportions roughly honored.
    const double frac = static_cast<double>(e.x_train.rows()) /
                        static_cast<double>(e.x_train.rows() + e.x_test.rows());
    EXPECT_NEAR(frac, 0.7, 0.02);
  }
}

TEST(Experiences, AttackFamiliesOnlyInTheirExperience) {
  const Dataset ds = make_wustl_iiot(17, 0.4);
  const ExperienceSet es = prepare_experiences(ds, {.n_experiences = 4});
  for (std::size_t e = 0; e < es.size(); ++e) {
    const auto& here = es.experiences[e].attack_classes_here;
    const std::set<int> allowed(here.begin(), here.end());
    for (int c : es.experiences[e].test_class) {
      if (c >= 0) {
        EXPECT_TRUE(allowed.count(c)) << "foreign family in test set";
      }
    }
  }
}

TEST(Experiences, StandardizationUsesCleanStats) {
  const Dataset ds = make_unsw_nb15(19, 0.3);
  const ExperienceSet es = prepare_experiences(ds, {.n_experiences = 5});
  // N_c itself must be ~standard normal per column.
  auto mu = col_mean(es.n_clean);
  for (double v : mu) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(Experiences, RejectsImpossibleSplits) {
  const Dataset ds = make_wustl_iiot(23, 0.3);  // 4 attack classes
  EXPECT_THROW(prepare_experiences(ds, {.n_experiences = 6}), std::invalid_argument);
  EXPECT_THROW(prepare_experiences(ds, {.n_experiences = 1}), std::invalid_argument);
  PrepConfig bad;
  bad.clean_frac = 0.0;
  EXPECT_THROW(prepare_experiences(ds, bad), std::invalid_argument);
}

}  // namespace
}  // namespace cnd::data
