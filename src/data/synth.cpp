#include "data/synth.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "data/flow_generator.hpp"
#include "tensor/assert.hpp"

namespace cnd::data {

Dataset make_synthetic(const SynthSpec& spec) {
  require(spec.n_features > 0, "make_synthetic: zero features");
  require(spec.n_normal > 0 && spec.n_attack > 0, "make_synthetic: empty classes");
  require(spec.n_attack_classes > 0, "make_synthetic: zero attack classes");
  require(spec.n_attack >= spec.n_attack_classes,
          "make_synthetic: fewer attacks than classes");

  Rng rng(spec.seed);
  FlowGenerator gen(spec.n_features, spec.latent_rank, spec.base_mix_scale, rng);

  // Normal traffic: several modes around the origin sharing most of their
  // covariance structure, all drifting across the stream.
  std::vector<std::size_t> normal_profiles;
  for (std::size_t m = 0; m < spec.n_normal_modes; ++m) {
    normal_profiles.push_back(gen.add_profile(
        "normal_mode_" + std::to_string(m),
        /*center_dist=*/rng.uniform(0.0, 1.5 * spec.normal_spread),
        /*spread=*/spec.normal_spread, spec.normal_heavy_df,
        /*drift_mag=*/spec.drift_mag, spec.normal_subspace_shift,
        spec.normal_in_sub, spec.cov_drift, rng));
  }

  // Attack families at controlled difficulty. Two decoupled axes mirror
  // real traffic:
  //  - `center_dist` (how far the family sits in full feature space) is
  //    drawn randomly per family — floods and scans are far, stealthier
  //    misuse closer — and is what clustering/distance methods perceive;
  //  - `in_subspace_frac` is the PCA-difficulty axis: family index 0 (the
  //    most voluminous family under the Zipf size law below) hides almost
  //    entirely inside the normal principal subspace, the rarest family
  //    sticks out of it. Common attacks mimicking benign feature structure
  //    is exactly the regime the paper motivates (Fig. 1).
  // Difficulty rank is a random permutation of the families, so experiences
  // (which receive families in appearance order) each mix hard and easy
  // attacks rather than getting monotonically easier over the stream.
  const std::vector<std::size_t> hard_rank = rng.permutation(spec.n_attack_classes);

  std::vector<std::size_t> attack_profiles;
  std::vector<std::string> class_names;
  for (std::size_t c = 0; c < spec.n_attack_classes; ++c) {
    const double t = spec.n_attack_classes == 1
                         ? 0.5
                         : static_cast<double>(hard_rank[c]) /
                               static_cast<double>(spec.n_attack_classes - 1);
    const double dist = rng.uniform(spec.attack_dist_min, spec.attack_dist_max);
    const double shift =
        spec.attack_shift_min + t * (spec.attack_shift_max - spec.attack_shift_min);
    const double in_sub = spec.attack_in_sub_hard +
                          t * (spec.attack_in_sub_easy - spec.attack_in_sub_hard);
    // Hard families also match normal traffic's noise signature: same
    // per-feature spread and Gaussian tails. Easy families are burstier
    // (heavy-tailed, wider spread) — residual noise alone betrays them.
    const double spread =
        spec.normal_spread + t * (spec.attack_spread - spec.normal_spread);
    const double df = t < 0.5 ? spec.normal_heavy_df : spec.heavy_df;

    const std::string nm = c < spec.family_names.size()
                               ? spec.family_names[c]
                               : "attack_" + std::to_string(c);
    class_names.push_back(nm);
    attack_profiles.push_back(gen.add_profile(
        nm, dist, spread, df, /*drift_mag=*/spec.drift_mag * 0.3, shift, in_sub,
        spec.cov_drift * 0.3, rng));
  }

  // Zipf-like class sizes keyed to the difficulty rank: the hardest
  // families are also the most voluminous (common attacks mimic benign
  // traffic; exotic ones are rare), which is the regime Fig. 1 motivates.
  std::vector<double> w(spec.n_attack_classes);
  double wsum = 0.0;
  for (std::size_t c = 0; c < spec.n_attack_classes; ++c) {
    w[c] = 1.0 / std::pow(static_cast<double>(hard_rank[c] + 1), spec.imbalance);
    wsum += w[c];
  }
  std::vector<std::size_t> counts(spec.n_attack_classes);
  std::size_t assigned = 0;
  for (std::size_t c = 0; c < spec.n_attack_classes; ++c) {
    counts[c] = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::floor(w[c] / wsum *
                                               static_cast<double>(spec.n_attack))));
    assigned += counts[c];
  }
  // Distribute rounding remainder to the largest class.
  std::size_t largest = 0;
  for (std::size_t c = 1; c < spec.n_attack_classes; ++c)
    if (w[c] > w[largest]) largest = c;
  while (assigned < spec.n_attack) {
    ++counts[largest];
    ++assigned;
  }
  while (assigned > spec.n_attack) {
    for (std::size_t c = 0; c < spec.n_attack_classes && assigned > spec.n_attack; ++c) {
      if (counts[c] > 1) {
        --counts[c];
        --assigned;
      }
    }
  }

  Dataset ds;
  ds.name = spec.name;
  ds.class_names = class_names;

  // Normal rows in time order; phase ramps 0 -> 1 across the stream.
  for (std::size_t i = 0; i < spec.n_normal; ++i) {
    const double phase =
        static_cast<double>(i) / static_cast<double>(spec.n_normal);
    const std::size_t mode = normal_profiles[rng.categorical(
        std::vector<double>(spec.n_normal_modes, 1.0))];
    ds.x.append_rows(gen.sample(mode, 1, phase, rng));
    ds.y.push_back(0);
    ds.attack_class.push_back(-1);
  }

  // Attack rows grouped by family; each family is active around its
  // first-appearance window, phase = c / |C| with small jitter.
  for (std::size_t c = 0; c < spec.n_attack_classes; ++c) {
    const double base_phase =
        static_cast<double>(c) / static_cast<double>(spec.n_attack_classes);
    Matrix rows = gen.sample(attack_profiles[c], counts[c],
                             base_phase + rng.uniform(0.0, 0.05), rng);
    ds.x.append_rows(rows);
    for (std::size_t i = 0; i < counts[c]; ++i) {
      ds.y.push_back(1);
      ds.attack_class.push_back(static_cast<int>(c));
    }
  }

  ds.validate();
  return ds;
}

namespace {

/// Fewest rows of either class in a scaled dataset.
constexpr std::size_t kMinClassRows = 64;

/// Sets the row counts to `normal * scale` and `attack * scale`. Both counts
/// scale by one factor, so the attack share stays Table I's; below the floor
/// the factor rises until the smaller class has exactly kMinClassRows (the
/// max only absorbs the rounding of kMinClassRows / smaller * smaller). The
/// cast to std::size_t is undefined for a negative, NaN or out-of-range
/// value, so such a scale is rejected instead.
void set_scaled_counts(SynthSpec& s, double normal, double attack, double scale) {
  if (!(std::isfinite(scale) && scale > 0.0 &&
        std::max(normal, attack) * scale <
            static_cast<double>(std::numeric_limits<std::size_t>::max()))) {
    char msg[128];
    std::snprintf(msg, sizeof(msg),
                  "synthetic dataset: size_scale %g must be finite and > 0, "
                  "and its row count must fit std::size_t",
                  scale);
    throw std::invalid_argument(msg);
  }
  const double smaller = std::min(normal, attack);
  const auto floor_rows = static_cast<double>(kMinClassRows);
  const double f = smaller * scale < floor_rows ? floor_rows / smaller : scale;
  s.n_normal = std::max(kMinClassRows, static_cast<std::size_t>(normal * f));
  s.n_attack = std::max(kMinClassRows, static_cast<std::size_t>(attack * f));
}

}  // namespace

// Table I ratios: X-IIoTID 820,502 rows (51.4% normal), 18 attack types.
Dataset make_x_iiotid(std::uint64_t seed, double size_scale) {
  SynthSpec s;
  s.name = "X-IIoTID";
  s.n_features = 48;
  set_scaled_counts(s, 8400, 7960, size_scale);
  s.n_attack_classes = 18;
  s.n_normal_modes = 5;
  s.attack_dist_min = 9.0;
  s.attack_dist_max = 28.0;
  s.drift_mag = 3.5;       // IIoT process re-configuration drift
  s.heavy_df = 4.0;
  s.imbalance = 0.6;
  s.seed = seed ^ 0x1107ULL;
  s.family_names = {"Generic_scan", "Fuzzing", "Discovering_resources",
                    "BruteForce", "Dictionary", "insider_malicious",
                    "Reverse_shell", "MITM", "MQTT_cloud_broker_subscription",
                    "Modbus_register_reading", "TCP_Relay", "C&C",
                    "Exfiltration", "Fake_notification", "False_data_injection",
                    "RDOS", "Crypto-ransomware", "Ransom_DoS"};
  return make_synthetic(s);
}

// WUSTL-IIoT: 1,194,464 rows, only 7.3% attack, 4 attack types.
Dataset make_wustl_iiot(std::uint64_t seed, double size_scale) {
  SynthSpec s;
  s.name = "WUSTL-IIoT";
  s.n_features = 32;
  set_scaled_counts(s, 11100, 870, size_scale);
  s.n_attack_classes = 4;
  s.n_normal_modes = 3;
  s.attack_dist_min = 11.0;
  s.attack_dist_max = 30.0;
  s.drift_mag = 2.5;
  s.heavy_df = 5.0;
  s.imbalance = 0.5;
  s.seed = seed ^ 0x3057ULL;
  s.family_names = {"Command_injection", "DoS", "Reconnaissance", "Backdoor"};
  return make_synthetic(s);
}

// CICIDS2017: 2,830,743 rows (80.3% normal), 15 attack types.
Dataset make_cicids2017(std::uint64_t seed, double size_scale) {
  SynthSpec s;
  s.name = "CICIDS2017";
  s.n_features = 64;
  set_scaled_counts(s, 11350, 2790, size_scale);
  s.n_attack_classes = 15;
  s.n_normal_modes = 5;
  s.attack_dist_min = 8.0;   // includes near-normal web attacks
  s.attack_dist_max = 26.0;
  s.drift_mag = 3.0;
  s.heavy_df = 4.5;
  s.imbalance = 0.8;         // CICIDS is the most imbalanced across families
  s.seed = seed ^ 0xC1C1ULL;
  s.family_names = {"DoS_Hulk", "PortScan", "DDoS", "DoS_GoldenEye", "FTP-Patator",
                    "SSH-Patator", "DoS_slowloris", "DoS_Slowhttptest", "Bot",
                    "Web_BruteForce", "Web_XSS", "Infiltration", "Web_SqlInjection",
                    "Heartbleed", "PortScan_stealth"};
  return make_synthetic(s);
}

// UNSW-NB15: 257,673 rows (63.9% normal), 10 attack types.
Dataset make_unsw_nb15(std::uint64_t seed, double size_scale) {
  SynthSpec s;
  s.name = "UNSW-NB15";
  s.n_features = 40;
  set_scaled_counts(s, 6400, 3600, size_scale);
  s.n_attack_classes = 10;
  s.n_normal_modes = 4;
  s.attack_dist_min = 7.0;   // UNSW has notoriously hard "analysis/backdoor"
  s.attack_dist_max = 24.0;
  s.attack_in_sub_easy = 0.50;  // even UNSW's "easy" families mimic benign flows
  s.drift_mag = 2.2;
  s.heavy_df = 3.5;
  s.imbalance = 0.8;
  s.seed = seed ^ 0x0B15ULL;
  s.family_names = {"Generic", "Exploits", "Fuzzers", "DoS", "Reconnaissance",
                    "Analysis", "Backdoor", "Shellcode", "Worms", "Exploits_SMB"};
  return make_synthetic(s);
}

std::vector<Dataset> make_all_paper_datasets(std::uint64_t seed, double size_scale) {
  std::vector<Dataset> out;
  out.push_back(make_x_iiotid(seed, size_scale));
  out.push_back(make_wustl_iiot(seed, size_scale));
  out.push_back(make_cicids2017(seed, size_scale));
  out.push_back(make_unsw_nb15(seed, size_scale));
  return out;
}

}  // namespace cnd::data
