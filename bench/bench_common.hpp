// Shared harness pieces for the paper-reproduction benches.
//
// Every bench_figN / bench_tableN binary reproduces one table or figure of
// the CND-IDS paper (see DESIGN.md §3): it builds the four synthetic paper
// datasets, runs the relevant detectors through the §III-A protocol, prints
// the paper's rows/series next to our measured values, and writes a CSV into
// the working directory.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "baselines/adcn.hpp"
#include "baselines/lwf.hpp"
#include "core/cnd_ids.hpp"
#include "core/detector_factory.hpp"
#include "core/experience_runner.hpp"
#include "data/experiences.hpp"
#include "data/synth.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "runtime/parallel_for.hpp"

namespace cnd::bench {

/// Knobs every experiment bench shares. Size scale 1.0 reproduces the
/// DESIGN.md dataset sizes (~10-16k rows); smaller scales trade fidelity
/// for runtime.
struct BenchOptions {
  double size_scale = 0.5;
  std::uint64_t seed = 42;
  bool verbose = false;
  /// Runtime lanes; 0 = leave the runtime default (CND_THREADS env or
  /// hardware concurrency). See docs/PARALLELISM.md.
  std::size_t threads = 0;
  /// JSONL telemetry path; empty = observability off (the default, and
  /// free: no clocks are read and no events are built). Timings in this
  /// stream are wall-clock and machine-dependent — result CSVs stay
  /// bit-identical with or without it (docs/OBSERVABILITY.md).
  std::string metrics_out;
  /// Values of the bench's own `--name=value` flags (parse_options'
  /// `extra_flags`), keyed by name; a flag not given has no entry.
  std::map<std::string, std::string> extra;
};

namespace detail {

/// Value of "--flag=v" as a T, parsed whole by std::from_chars: a leading
/// blank, a '+' sign, hex, trailing junk or overflow throws
/// std::invalid_argument, and so does a '-' for an unsigned T. (std::stod
/// reads "--scale= 0.5", "+0.5" and "0x1p-1" as 0.5; std::stoull skips the
/// blank in "--seed= -1" and wraps the -1 to 2^64 - 1.)
template <typename T>
T number_flag(const std::string& arg, std::size_t prefix_len) {
  const std::string_view v = std::string_view(arg).substr(prefix_len);
  T x{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec != std::errc() || end != v.data() + v.size())
    throw std::invalid_argument("bench: malformed value in '" + arg + "'");
  return x;
}

}  // namespace detail

/// Flush the full metrics registry as one `metrics_snapshot` event line and
/// flush the sink. Installed via std::atexit by enable_metrics_output so
/// every bench exit path ends the JSONL stream with a complete
/// counter/gauge/histogram dump.
inline void write_metrics_snapshot() {
  if (!obs::events().enabled()) return;
  std::string line = "{\"event\":\"metrics_snapshot\",";
  line += obs::metrics().to_json_fields();
  line += '}';
  obs::events().emit_raw(line);
  obs::events().flush();
}

/// Turn observability on and route the event stream to `path` (truncated).
/// Emits a `run_start` record so each JSONL file is self-describing, and
/// registers the atexit snapshot writer exactly once per process.
inline void enable_metrics_output(const std::string& path, const BenchOptions& o) {
  obs::events().set_sink(std::make_shared<obs::FileSink>(path));
  obs::set_enabled(true);
  obs::events().emit("run_start", {{"seed", o.seed},
                                   {"scale", o.size_scale},
                                   {"threads", runtime::threads()}});
  static const bool registered = [] {
    std::atexit(write_metrics_snapshot);
    return true;
  }();
  (void)registered;
}

/// Parse "--scale=0.25 --seed=7 --threads=4 --metrics-out=run.jsonl
/// --verbose" style argv (used by all benches). --metrics-out also accepts
/// a separate-argument value ("--metrics-out run.jsonl"). `extra_flags`
/// names a bench's own `--name=value` flags, whose values land in
/// BenchOptions::extra. Malformed values, unknown flags and stray arguments
/// throw std::invalid_argument naming the argument, so a misspelt flag
/// never runs at its default. A --threads value is applied to the parallel
/// runtime immediately; a --metrics-out value turns observability on and
/// attaches the JSONL file sink.
inline BenchOptions parse_options(int argc, char** argv,
                                  const std::vector<std::string>& extra_flags = {}) {
  BenchOptions o;
#ifdef CND_SANITIZER_BUILD
  // Sanitizer instrumentation inflates wall-clock by 2-20x; announce the
  // mode so a sanitizer run reads as a correctness run only.
  std::fprintf(stderr,
               "bench: sanitizer build (CND_SANITIZER_BUILD) — correctness "
               "run only, timings are not representative\n");
#endif
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--scale=", 0) == 0) {
      o.size_scale = detail::number_flag<double>(a, 8);
      if (!std::isfinite(o.size_scale) || o.size_scale <= 0.0)
        throw std::invalid_argument("bench: --scale must be finite and > 0");
    } else if (a.rfind("--seed=", 0) == 0) {
      o.seed = detail::number_flag<std::uint64_t>(a, 7);
    } else if (a.rfind("--threads=", 0) == 0) {
      o.threads = detail::number_flag<std::size_t>(a, 10);
      if (o.threads == 0)
        throw std::invalid_argument("bench: --threads must be >= 1");
    } else if (a.rfind("--metrics-out=", 0) == 0) {
      o.metrics_out = a.substr(14);
      if (o.metrics_out.empty())
        throw std::invalid_argument("bench: --metrics-out needs a path");
    } else if (a == "--metrics-out") {
      if (i + 1 >= argc)
        throw std::invalid_argument("bench: --metrics-out needs a path");
      o.metrics_out = argv[++i];
    } else if (a == "--verbose") {
      o.verbose = true;
    } else {
      const auto extra = std::find_if(
          extra_flags.begin(), extra_flags.end(),
          [&](const std::string& f) { return a.rfind("--" + f + "=", 0) == 0; });
      if (extra == extra_flags.end())
        throw std::invalid_argument(
            (a.rfind("--", 0) == 0 ? "bench: unknown flag '"
                                   : "bench: stray argument '") +
            a + "'");
      o.extra[*extra] = a.substr(extra->size() + 3);
    }
  }
  if (o.threads > 0) runtime::set_threads(o.threads);
  if (!o.metrics_out.empty()) enable_metrics_output(o.metrics_out, o);
  return o;
}

/// Deterministic bench fan-out: run job(i) for every i in [0, n_jobs)
/// across the runtime pool. Jobs must be independent — each derives its own
/// RNG streams from its seed and writes only its own result slot, so the
/// aggregated output is identical at any thread count. Inside a job, the
/// substrate's own parallelism is suppressed (nested regions run serially),
/// which is the right shape: coarse-grained jobs saturate the pool.
template <typename Job>
inline void parallel_jobs(std::size_t n_jobs, Job&& job) {
  runtime::parallel_for(0, n_jobs, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) job(i);
  });
}

/// The paper's experience counts: 5 for X-IIoTID / CICIDS2017 / UNSW-NB15,
/// 4 for WUSTL-IIoT (one attack per experience).
inline std::size_t paper_m(const std::string& dataset_name) {
  return dataset_name == "WUSTL-IIoT" ? 4 : 5;
}

/// The paper's CND-IDS hyperparameters (§IV-A): 256-unit hidden layers,
/// lambda_R = lambda_CL = 0.1, Adam @ 1e-3, elbow-method K, PCA @ 95%.
/// Epochs are not stated in the paper; 8 converges at our data scale.
inline core::CndIdsConfig paper_cnd_config(std::uint64_t seed = 1234) {
  core::CndIdsConfig c;
  c.cfe.hidden_dim = 256;
  c.cfe.latent_dim = 256;
  c.cfe.lambda_r = 0.1;
  c.cfe.lambda_cl = 0.1;
  c.cfe.epochs = 8;
  c.cfe.batch_size = 128;
  c.cfe.lr = 1e-3;
  c.cfe.kmeans_k = 0;  // elbow
  c.pca.explained_variance = 0.95;
  c.seed = seed;
  return c;
}

inline baselines::AdcnConfig paper_adcn_config(std::uint64_t seed = 4321) {
  baselines::AdcnConfig c;
  c.hidden_dim = 256;
  c.latent_dim = 256;  // same "256 neurons" budget as CND-IDS
  c.epochs = 8;
  c.seed = seed;
  return c;
}

inline baselines::LwfConfig paper_lwf_config(std::uint64_t seed = 8765) {
  baselines::LwfConfig c;
  c.hidden_dim = 256;
  c.latent_dim = 256;  // same "256 neurons" budget as CND-IDS
  c.epochs = 8;
  c.seed = seed;
  return c;
}

/// Build one paper dataset's experience set under the paper's protocol.
inline data::ExperienceSet make_experience_set(const data::Dataset& ds,
                                               std::uint64_t seed) {
  return data::prepare_experiences(
      ds, {.n_experiences = paper_m(ds.name), .clean_frac = 0.10,
           .train_frac = 0.70, .standardize = true, .seed = seed});
}

// ---- Factory-based detector runs -------------------------------------------
//
// Every detector-constructing bench goes through the core detector registry
// (core/detector_factory.hpp), so the registry's names are the single
// source of truth for the detector identifiers in result CSVs. The static
// baselines keep their pre-factory semantics: PCA/DIF (and the extension
// zoo) fit once on the clean-normal holdout; LOF/OC-SVM — which, as the
// paper notes, "cannot be retrained on unlabeled contaminated data" — fit
// once on the first observed stream per their use in Faber et al. [15].
// DIF keeps the 24x6 ensemble (down from the reference 50x6, which at our
// reference-set size makes DIF stronger than the paper reports — see
// EXPERIMENTS.md).

/// The paper benches' full detector configuration: paper hyperparameters
/// for the continual methods, the EXPERIMENTS.md settings for the static
/// baselines (already the DetectorConfig defaults), one seed throughout.
inline core::DetectorConfig paper_detector_config(std::uint64_t seed) {
  core::DetectorConfig c;
  c.seed = seed;
  c.cnd = paper_cnd_config(seed);
  c.adcn = paper_adcn_config(seed);
  c.lwf = paper_lwf_config(seed);
  return c;
}

/// Build registry detector `name` under the paper config and drive it
/// through the evaluation protocol.
inline core::RunResult run_detector(const std::string& name,
                                    const data::ExperienceSet& es,
                                    std::uint64_t seed,
                                    const core::RunConfig& rc = {}) {
  return core::run_detector(name, paper_detector_config(seed), es, rc);
}

/// Pretty row printer shared by the benches.
inline void print_row(const std::string& label, const std::vector<double>& vals) {
  std::printf("  %-24s", label.c_str());
  for (double v : vals) std::printf("  %8.4f", v);
  std::printf("\n");
}

}  // namespace cnd::bench
