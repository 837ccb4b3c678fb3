#include "data/experiences.hpp"

#include <algorithm>
#include <cmath>

#include "ml/scaler.hpp"
#include "tensor/assert.hpp"
#include "tensor/check.hpp"

namespace cnd::data {

ExperienceSet prepare_experiences(const Dataset& ds, const PrepConfig& cfg) {
  ds.validate();
  const std::size_t m = cfg.n_experiences;
  require(m >= 2, "prepare_experiences: need at least 2 experiences");
  require(cfg.family_partition == FamilyPartition::kSpread ||
              ds.n_attack_classes() >= m,
          "prepare_experiences: fewer attack classes than experiences");
  require(cfg.clean_frac > 0.0 && cfg.clean_frac < 1.0,
          "prepare_experiences: clean_frac out of (0,1)");
  require(cfg.train_frac > 0.0 && cfg.train_frac < 1.0,
          "prepare_experiences: train_frac out of (0,1)");
  require(cfg.contamination_ramp >= 0.0 && cfg.contamination_ramp < 1.0,
          "prepare_experiences: contamination_ramp out of [0,1)");

  Rng rng(cfg.seed);
  // Contamination swaps draw from their own salted stream so that enabling
  // the ramp never perturbs the shuffle permutations: train/test splits stay
  // byte-identical to the ramp-free protocol.
  Rng contam_rng = Rng(cfg.seed).split(0xC0'47A3ULL);

  // Collect row indices: normal rows in stream order; attack rows per family.
  std::vector<std::size_t> normal_idx;
  std::vector<std::vector<std::size_t>> family_idx(ds.n_attack_classes());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (ds.y[i] == 0)
      normal_idx.push_back(i);
    else
      family_idx[static_cast<std::size_t>(ds.attack_class[i])].push_back(i);
  }
  const std::size_t n_clean =
      static_cast<std::size_t>(std::floor(cfg.clean_frac *
                                          static_cast<double>(normal_idx.size())));
  require(n_clean >= 16, "prepare_experiences: too little normal data for N_c");
  require(normal_idx.size() - n_clean >= m * 8,
          "prepare_experiences: too little normal data for the experiences");

  // N_c = first clean_frac of the normal stream (pre-deployment traffic).
  std::vector<std::size_t> clean_idx(normal_idx.begin(),
                                     normal_idx.begin() + static_cast<std::ptrdiff_t>(n_clean));
  std::vector<std::size_t> stream_normal(normal_idx.begin() + static_cast<std::ptrdiff_t>(n_clean),
                                         normal_idx.end());

  ExperienceSet out;
  out.dataset_name = ds.name;
  out.class_names = ds.class_names;

  // Standardization statistics come from N_c only: it is the single piece of
  // data the operator has verified, and fitting on later traffic would leak.
  ml::StandardScaler scaler;
  Matrix clean_raw = ds.x.take_rows(clean_idx);
  if (cfg.standardize) {
    scaler.fit(clean_raw);
    out.n_clean = scaler.transform(clean_raw);
  } else {
    out.n_clean = clean_raw;
  }
  auto maybe_scale = [&](Matrix v) {
    return cfg.standardize ? scaler.transform(v) : std::move(v);
  };

  // Partition attack families across experiences. kIncremental: family c is
  // wholly owned by experience c*m/|C| (first-appearance order), so future
  // experiences contain zero-day families. kSpread: each family's rows are
  // cut into m contiguous slices, one per experience, so every experience
  // carries every large-enough family (families with fewer than m rows land
  // wholly in the last experience).
  const std::size_t n_classes = ds.n_attack_classes();
  std::vector<std::vector<int>> classes_per_exp(m);
  std::vector<std::vector<std::size_t>> attack_rows_per_exp(m);
  std::vector<std::vector<int>> attack_cls_per_exp(m);
  if (cfg.family_partition == FamilyPartition::kIncremental) {
    for (std::size_t c = 0; c < n_classes; ++c)
      classes_per_exp[std::min(c * m / n_classes, m - 1)].push_back(static_cast<int>(c));
    for (std::size_t e = 0; e < m; ++e)
      for (int c : classes_per_exp[e])
        for (std::size_t i : family_idx[static_cast<std::size_t>(c)]) {
          attack_rows_per_exp[e].push_back(i);
          attack_cls_per_exp[e].push_back(c);
        }
  } else {
    for (std::size_t c = 0; c < n_classes; ++c) {
      const auto& fam = family_idx[c];
      const std::size_t per = fam.size() / m;
      for (std::size_t e = 0; e < m; ++e) {
        const std::size_t lo = e * per;
        const std::size_t hi = (e + 1 == m) ? fam.size() : (e + 1) * per;
        if (lo >= hi) continue;
        classes_per_exp[e].push_back(static_cast<int>(c));
        for (std::size_t i = lo; i < hi; ++i) {
          attack_rows_per_exp[e].push_back(fam[i]);
          attack_cls_per_exp[e].push_back(static_cast<int>(c));
        }
      }
    }
  }

  // Normal stream is cut into m contiguous slices (time order preserved so
  // drift lands in the right experience).
  const std::size_t per_exp = stream_normal.size() / m;

  for (std::size_t e = 0; e < m; ++e) {
    Experience exp;
    exp.attack_classes_here = classes_per_exp[e];

    std::vector<std::size_t> rows;
    std::vector<int> row_class;  // -1 normal
    const std::size_t lo = e * per_exp;
    const std::size_t hi = (e + 1 == m) ? stream_normal.size() : (e + 1) * per_exp;
    for (std::size_t i = lo; i < hi; ++i) {
      rows.push_back(stream_normal[i]);
      row_class.push_back(-1);
    }
    for (std::size_t k = 0; k < attack_rows_per_exp[e].size(); ++k) {
      rows.push_back(attack_rows_per_exp[e][k]);
      row_class.push_back(attack_cls_per_exp[e][k]);
    }
    require(rows.size() >= 8, "prepare_experiences: experience too small");

    // Shuffle within the experience, then split train/test.
    auto perm = rng.permutation(rows.size());
    const auto n_train =
        static_cast<std::size_t>(std::floor(cfg.train_frac *
                                            static_cast<double>(rows.size())));
    CND_CHECK(n_train >= 1 && n_train < rows.size(),
              "prepare_experiences: train split leaves an empty side");

    std::vector<std::size_t> train_rows, test_rows;
    std::vector<int> train_cls, test_cls;
    for (std::size_t i = 0; i < perm.size(); ++i) {
      const std::size_t r = rows[perm[i]];
      if (i < n_train) {
        train_rows.push_back(r);
        train_cls.push_back(row_class[perm[i]]);
      } else {
        test_rows.push_back(r);
        test_cls.push_back(row_class[perm[i]]);
      }
    }

    // Contamination ramp: swap a growing share of the normal training rows
    // for duplicates of attack rows already in this training split. Drawing
    // only from the train split keeps train and test disjoint.
    if (cfg.contamination_ramp > 0.0) {
      const double frac = cfg.contamination_ramp * static_cast<double>(e) /
                          static_cast<double>(m - 1);
      std::vector<std::size_t> normal_pos, attack_pos;
      for (std::size_t i = 0; i < train_rows.size(); ++i)
        (train_cls[i] < 0 ? normal_pos : attack_pos).push_back(i);
      const auto n_swap = static_cast<std::size_t>(
          std::floor(frac * static_cast<double>(normal_pos.size())));
      if (n_swap > 0 && !attack_pos.empty()) {
        auto pick = contam_rng.permutation(normal_pos.size());
        for (std::size_t k = 0; k < n_swap; ++k) {
          const auto a = static_cast<std::size_t>(contam_rng.randint(
              0, static_cast<std::int64_t>(attack_pos.size()) - 1));
          train_rows[normal_pos[pick[k]]] = train_rows[attack_pos[a]];
        }
      }
    }

    exp.x_train = maybe_scale(ds.x.take_rows(train_rows));
    exp.x_test = maybe_scale(ds.x.take_rows(test_rows));
    exp.test_class = std::move(test_cls);
    exp.y_test.reserve(exp.test_class.size());
    for (int c : exp.test_class) exp.y_test.push_back(c >= 0 ? 1 : 0);

    out.experiences.push_back(std::move(exp));
  }
  return out;
}

}  // namespace cnd::data
