#include "core/detector_factory.hpp"

#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <utility>

#include "ml/hbos.hpp"
#include "ml/mahalanobis.hpp"
#include "obs/scoped_timer.hpp"
#include "tensor/rng.hpp"

namespace cnd::core {

namespace {

/// Adapts a fit-once scorer (PCA, DIF, LOF, ...) to the ContinualDetector
/// interface. kStaticNovelty fits on N_c at setup(); kStaticOutlier fits on
/// the first observed training stream; both ignore every later experience.
class FrozenScorer final : public ContinualDetector {
 public:
  FrozenScorer(std::string name, DetectorKind kind,
               std::function<void(const Matrix&)> fit,
               std::function<std::vector<double>(const Matrix&)> score)
      : name_(std::move(name)),
        kind_(kind),
        fit_(std::move(fit)),
        score_(std::move(score)) {}

  std::string name() const override { return name_; }

  void setup(const SetupContext& ctx) override {
    if (kind_ == DetectorKind::kStaticNovelty) {
      fit_(ctx.n_clean);
      fitted_ = true;
    }
  }

  void observe_experience(const Matrix& x_train) override {
    if (kind_ == DetectorKind::kStaticOutlier && !fitted_) {
      fit_(x_train);
      fitted_ = true;
    }
  }

  std::vector<double> score(const Matrix& x_test) override {
    if (!fitted_)
      throw std::logic_error("FrozenScorer(" + name_ + "): score before fit");
    return score_(x_test);
  }

 private:
  std::string name_;
  DetectorKind kind_;
  std::function<void(const Matrix&)> fit_;
  std::function<std::vector<double>(const Matrix&)> score_;
  bool fitted_ = false;
};

using DetectorFactory =
    std::function<std::unique_ptr<ContinualDetector>(const DetectorConfig&)>;

struct Entry {
  DetectorKind kind;
  DetectorFactory factory;
  std::string description;
};

/// Keyed by CSV name.
using Registry = std::map<std::string, Entry>;

/// Wrap a detector object in a FrozenScorer; the object lives in a
/// shared_ptr captured by both closures.
template <typename Det, typename FitFn>
std::unique_ptr<ContinualDetector> frozen(const std::string& name,
                                          DetectorKind kind, Det det,
                                          FitFn fit) {
  auto ptr = std::make_shared<Det>(std::move(det));
  return std::make_unique<FrozenScorer>(
      name, kind, [ptr, fit](const Matrix& x) { fit(*ptr, x); },
      [ptr](const Matrix& x) { return ptr->score(x); });
}

Registry builtin_registry() {
  Registry r;
  auto add = [&](const std::string& name, DetectorKind kind, DetectorFactory f,
                 std::string description) {
    r.emplace(name, Entry{kind, std::move(f), std::move(description)});
  };

  // Continual detectors.
  add("CND-IDS", DetectorKind::kContinual, [](const DetectorConfig& c) {
    return std::make_unique<CndIds>(c.cnd);
  },
      "the paper's detector: CFE encoder + PCA scoring, refits every "
      "experience");
  add("Adaptive", DetectorKind::kContinual, [](const DetectorConfig& c) {
    return std::make_unique<AdaptiveCndIds>(c.cnd);
  },
      "drift-gated CND-IDS: Page-Hinkley on stream scores decides when to "
      "refit");
  add("ADCN", DetectorKind::kContinual, [](const DetectorConfig& c) {
    return std::make_unique<baselines::Adcn>(c.adcn);
  },
      "UCL baseline: autonomous deep clustering network");
  add("LwF", DetectorKind::kContinual, [](const DetectorConfig& c) {
    return std::make_unique<baselines::Lwf>(c.lwf);
  },
      "UCL baseline: learning-without-forgetting classifier");

  // Static novelty detectors: fit on the clean-normal holdout N_c.
  add("PCA", DetectorKind::kStaticNovelty, [](const DetectorConfig& c) {
    return frozen("PCA", DetectorKind::kStaticNovelty, ml::Pca(c.pca),
                  [](ml::Pca& d, const Matrix& x) { d.fit(x); });
  },
      "static novelty: PCA feature reconstruction error, fit on N_c");
  add("DIF", DetectorKind::kStaticNovelty, [](const DetectorConfig& c) {
    const std::uint64_t seed = c.seed;
    return frozen("DIF", DetectorKind::kStaticNovelty,
                  ml::DeepIsolationForest(c.dif),
                  [seed](ml::DeepIsolationForest& d, const Matrix& x) {
                    Rng rng(seed);
                    d.fit(x, rng);
                  });
  },
      "static novelty: deep isolation forest, fit on N_c");
  add("GMM", DetectorKind::kStaticNovelty, [](const DetectorConfig& c) {
    const std::uint64_t seed = c.seed;
    return frozen("GMM", DetectorKind::kStaticNovelty, ml::Gmm(c.gmm),
                  [seed](ml::Gmm& d, const Matrix& x) {
                    Rng rng(seed);
                    d.fit(x, rng);
                  });
  },
      "static novelty: Gaussian mixture negative log-likelihood");
  add("Maha", DetectorKind::kStaticNovelty, [](const DetectorConfig&) {
    return frozen("Maha", DetectorKind::kStaticNovelty, ml::MahalanobisDetector(),
                  [](ml::MahalanobisDetector& d, const Matrix& x) { d.fit(x); });
  },
      "static novelty: Mahalanobis distance to the N_c distribution");
  add("kNN", DetectorKind::kStaticNovelty, [](const DetectorConfig& c) {
    return frozen("kNN", DetectorKind::kStaticNovelty, ml::KnnDetector(c.knn),
                  [](ml::KnnDetector& d, const Matrix& x) { d.fit(x); });
  },
      "static novelty: k-nearest-neighbor distance to N_c");
  add("HBOS", DetectorKind::kStaticNovelty, [](const DetectorConfig&) {
    return frozen("HBOS", DetectorKind::kStaticNovelty, ml::Hbos(),
                  [](ml::Hbos& d, const Matrix& x) { d.fit(x); });
  },
      "static novelty: histogram-based outlier score");
  add("AE", DetectorKind::kStaticNovelty, [](const DetectorConfig& c) {
    return frozen("AE", DetectorKind::kStaticNovelty,
                  ml::AeDetector(c.ae, c.seed),
                  [](ml::AeDetector& d, const Matrix& x) { d.fit(x); });
  },
      "static novelty: autoencoder reconstruction error");

  // Static outlier detectors: fit on the first observed stream (Faber et
  // al. [15] usage), frozen afterwards.
  add("LOF", DetectorKind::kStaticOutlier, [](const DetectorConfig& c) {
    return frozen("LOF", DetectorKind::kStaticOutlier, ml::Lof(c.lof),
                  [](ml::Lof& d, const Matrix& x) { d.fit(x); });
  },
      "static outlier: local outlier factor, fit on the first stream");
  add("OC-SVM", DetectorKind::kStaticOutlier, [](const DetectorConfig& c) {
    return frozen("OC-SVM", DetectorKind::kStaticOutlier, ml::OcSvm(c.ocsvm),
                  [](ml::OcSvm& d, const Matrix& x) { d.fit(x); });
  },
      "static outlier: one-class SVM, fit on the first stream");
  return r;
}

/// Built once, on first use (a thread-safe static initialisation), and
/// never written again, so concurrent lookups need no lock. Never
/// destroyed: usable during teardown.
const Registry& registry() {
  static const Registry* r = new Registry(builtin_registry());
  return *r;
}

const Entry& lookup(const std::string& name) {
  const Registry& r = registry();
  const auto it = r.find(name);
  if (it == r.end()) {
    std::string msg = "unknown detector '" + name + "'; registered:";
    for (const auto& [n, entry] : r) msg += " " + n;
    throw std::invalid_argument(msg);
  }
  return it->second;
}

}  // namespace

std::unique_ptr<ContinualDetector> make_detector(const std::string& name,
                                                 const DetectorConfig& cfg) {
  return lookup(name).factory(cfg);
}

DetectorKind detector_kind(const std::string& name) {
  return lookup(name).kind;
}

std::string detector_description(const std::string& name) {
  return lookup(name).description;
}

std::vector<std::string> detector_names() {
  const Registry& r = registry();
  std::vector<std::string> names;
  names.reserve(r.size());
  for (const auto& [name, entry] : r) names.push_back(name);
  return names;  // std::map iteration order is already sorted
}

RunResult run_detector(const std::string& name, const DetectorConfig& cfg,
                       const data::ExperienceSet& es, const RunConfig& rc) {
  const Entry& entry = lookup(name);
  std::unique_ptr<ContinualDetector> det = entry.factory(cfg);
  if (entry.kind == DetectorKind::kContinual)
    return run_protocol(*det, es, rc);

  if (es.experiences.empty())
    throw std::invalid_argument("run_detector: empty experience set");

  // Static path: one-time fit per the detector's kind, then broadcast the
  // frozen scorer over every test split — identical to the pre-factory
  // run_static_* helpers.
  static const Matrix kNoSeedX;
  static const std::vector<int> kNoSeedY;
  obs::Stopwatch fit_timer;
  det->setup(SetupContext{es.n_clean, kNoSeedX, kNoSeedY});
  det->observe_experience(es.experiences.front().x_train);
  const double fit_ms = fit_timer.elapsed_ms();
  RunResult res = run_static_scorer(
      name, [&](const Matrix& x) { return det->score(x); }, es);
  res.fit_ms_total = fit_ms;
  if (rc.verbose)
    std::cout << res.f1.to_string(res.detector_name + " on " + res.dataset_name);
  return res;
}

}  // namespace cnd::core
