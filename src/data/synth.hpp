// Synthetic stand-ins for the paper's four intrusion datasets.
//
// Each constructor mirrors the real dataset's shape (feature count,
// normal/attack ratio, number of attack families, class imbalance) at a
// laptop-friendly scale, per the substitution policy in DESIGN.md §1.
// Rows are in stream (time) order: normal traffic drifts linearly over the
// stream, which is what makes the continual-learning protocol meaningful.
#pragma once

#include <cstdint>

#include "data/dataset.hpp"

namespace cnd::data {

/// Knobs shared by all four dataset constructors.
struct SynthSpec {
  std::string name;
  std::size_t n_features = 40;
  std::size_t n_normal = 10000;
  std::size_t n_attack = 5000;
  std::size_t n_attack_classes = 10;
  std::size_t n_normal_modes = 4;   ///< normal traffic is multi-modal.
  std::size_t latent_rank = 4;      ///< shared correlation rank q.
  double base_mix_scale = 1.2;      ///< shared mixing entry scale.
  double normal_spread = 1.0;       ///< per-feature noise scale of normal.
  double normal_subspace_shift = 0.15;  ///< how much normal modes differ.
  double attack_dist_min = 2.5;     ///< nearest attack family mean distance.
  double attack_dist_max = 28.0;    ///< farthest attack family mean distance.
  double attack_shift_min = 0.10;   ///< covariance deviation of hard families.
  double attack_shift_max = 0.80;   ///< covariance deviation of easy families.
  double attack_in_sub_hard = 0.95; ///< hard families hide in the PCA subspace.
  double attack_in_sub_easy = 0.35; ///< easy families stick out of it (partly).
  double normal_in_sub = 0.80;      ///< normal modes mostly share the subspace.
  double attack_spread = 1.2;
  double drift_mag = 3.0;           ///< normal-mode mean drift across the stream.
  double cov_drift = 0.45;          ///< covariance rotation across the stream.
  double heavy_df = 5.0;            ///< Student-t df of easy attack tails.
  double normal_heavy_df = 8.0;     ///< mild bursts in benign traffic too.
  double imbalance = 0.8;           ///< Zipf exponent for class sizes.
  std::uint64_t seed = 42;
  /// Attack family names in first-appearance order; families beyond the
  /// list fall back to "attack_<i>". The four paper-dataset constructors
  /// fill these with the real datasets' family names.
  std::vector<std::string> family_names;
};

/// Build a dataset from a spec. Normal rows appear in time order with
/// phase in [0, 1]; attack rows are interleaved at the position of their
/// family (families are ordered by first appearance).
Dataset make_synthetic(const SynthSpec& spec);

// The four paper datasets (Table I), scaled to ~1.5-2% of the original row
// counts with ratios preserved. `size_scale` rescales further if needed; it
// must be finite and > 0, else std::invalid_argument. Each class keeps at
// least 64 rows: below that floor both counts scale by one larger factor, so
// the smaller class has exactly 64 and the ratio still holds.
Dataset make_x_iiotid(std::uint64_t seed = 42, double size_scale = 1.0);
Dataset make_wustl_iiot(std::uint64_t seed = 42, double size_scale = 1.0);
Dataset make_cicids2017(std::uint64_t seed = 42, double size_scale = 1.0);
Dataset make_unsw_nb15(std::uint64_t seed = 42, double size_scale = 1.0);

/// All four, in the order the paper's figures list them.
std::vector<Dataset> make_all_paper_datasets(std::uint64_t seed = 42,
                                             double size_scale = 1.0);

}  // namespace cnd::data
