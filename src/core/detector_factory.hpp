// Unified detector factory and registry.
//
// Every detector the experiments compare — the continual methods (CND-IDS,
// its drift-gated Adaptive variant, ADCN, LwF) and the static
// novelty/outlier baselines (PCA, DIF, GMM, Maha, kNN, HBOS, AE, LOF,
// OC-SVM) — is constructible by name through make_detector(). The registry's names are the single source of truth for
// the detector identifiers written into result CSVs, so a bench and the CLI
// can never drift apart on what "DIF" means.
//
// Static baselines are wrapped as ContinualDetectors that fit exactly once:
//   kStaticNovelty  — fit on the clean-normal holdout N_c at setup()
//                     (PCA [23], DIF [33], and the extension zoo);
//   kStaticOutlier  — fit on the first observed (contaminated) training
//                     stream, as LOF / OC-SVM are used in Faber et al. [15],
//                     then frozen.
// run_detector() drives either kind through the paper's §III-A protocol and
// reproduces the pre-factory bench numerics bit-for-bit: the same fit data,
// the same fresh Rng(seed) for the stochastic detectors, the same
// run_protocol / run_static_scorer dispatch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/adcn.hpp"
#include "baselines/lwf.hpp"
#include "core/adaptive_cnd_ids.hpp"
#include "core/cnd_ids.hpp"
#include "core/detector.hpp"
#include "core/experience_runner.hpp"
#include "data/experiences.hpp"
#include "ml/ae_detector.hpp"
#include "ml/deep_isolation_forest.hpp"
#include "ml/gmm.hpp"
#include "ml/knn_detector.hpp"
#include "ml/lof.hpp"
#include "ml/ocsvm.hpp"
#include "ml/pca.hpp"

namespace cnd::core {

/// One bag of per-detector hyperparameters; each factory reads only its own
/// slice. Defaults reproduce the paper benches' settings (see
/// bench::paper_detector_config for the paper-scale network sizes).
struct DetectorConfig {
  /// Seed for the stochastic static baselines (DIF, GMM, AE). The continual
  /// detectors carry their own seed inside their sub-config.
  std::uint64_t seed = 42;

  CndIdsConfig cnd;
  baselines::AdcnConfig adcn;
  baselines::LwfConfig lwf;

  ml::PcaConfig pca;
  ml::DeepIsolationForestConfig dif;
  ml::LofConfig lof;
  ml::OcSvmConfig ocsvm;
  ml::GmmConfig gmm;
  ml::KnnDetectorConfig knn;
  ml::AeDetectorConfig ae;
};

enum class DetectorKind {
  kContinual,      ///< adapts per experience (run via run_protocol).
  kStaticNovelty,  ///< fit once on the clean-normal holdout N_c, frozen.
  kStaticOutlier,  ///< fit once on the first observed stream, frozen.
};

/// Construct a registered detector by its CSV name. Throws
/// std::invalid_argument for an unknown name (the message lists every
/// registered name).
std::unique_ptr<ContinualDetector> make_detector(const std::string& name,
                                                 const DetectorConfig& cfg = {});

/// Kind of a registered detector; throws std::invalid_argument when unknown.
DetectorKind detector_kind(const std::string& name);

/// Every registered name, sorted.
std::vector<std::string> detector_names();

/// One-line human description of a registered detector (shown by
/// `cnd detectors`); throws std::invalid_argument when unknown.
std::string detector_description(const std::string& name);

/// Construct `name` and drive it through the evaluation protocol:
/// continual detectors through run_protocol, static ones through a
/// one-time fit (on N_c or the first stream per their kind) followed by
/// run_static_scorer. The RunResult's detector_name is the registry name.
/// Both paths report fit and per-sample inference time (a static fit is
/// setup plus the first observe) and print the R matrix when
/// `rc.verbose` is set.
RunResult run_detector(const std::string& name, const DetectorConfig& cfg,
                       const data::ExperienceSet& es, const RunConfig& rc = {});

}  // namespace cnd::core
