// cnd — command-line interface to the CND-IDS library.
//
// Subcommands:
//   gen   --dataset=<x_iiotid|wustl_iiot|cicids2017|unsw_nb15> --out=<csv>
//         [--scale=0.25] [--seed=42]
//       Write a synthetic intrusion dataset in the library CSV format.
//
//   run   --data=<csv> [--detector=CND-IDS] [--experiences=5] [--seed=7]
//         [--epochs=8]
//       Run the full continual protocol (Algorithm 1) on a labeled CSV and
//       print the R matrix plus AVG / FwdTrans / BwdTrans. --detector
//       accepts any name from `cnd detectors` (the core registry).
//
//   detectors
//       List every registry detector name with its kind and a one-line
//       description (e.g. Adaptive — drift-gated CND-IDS).
//
//   score --train=<csv> --test=<csv> [--quantile=0.99] [--epochs=8]
//       Train CND-IDS on the train CSV (labels ignored — the method is
//       label-free; rows marked normal form N_c), then print one anomaly
//       score and verdict per test row. A row with a non-finite feature or
//       score is alarmed (fail closed, docs/SERVING.md).
//
//   pack  --data=<csv> --out=<bin>
//       Pack a CSV's feature columns into the binary flow-record format the
//       serving layer memory-maps (docs/SERVING.md; labels are dropped).
//
//   snapshot --data=<csv> --out=<artifact> [--detector=CND-IDS] [--seed=7]
//            [--epochs=8] [--fpr=0.01]
//       Train a snapshot-capable registry detector (normal rows form N_c,
//       the full file is the first stream), calibrate a POT threshold, and
//       save a versioned serving artifact.
//
//   restore --artifact=<bin> --test=<csv> [--explain]
//       Rebuild an inference-only replica from a serving artifact and score
//       a test CSV against the artifact's threshold (fail closed, as in
//       score). Scores are byte-identical to the detector that produced the
//       snapshot. --explain appends the top latent-feature attributions for
//       each alarmed row (which directions of the learned representation
//       drove the score); it needs a CND-IDS or Adaptive artifact.
//
//   serve --flows=<bin> --clean=<csv> [--detector=CND-IDS] [--shards=2]
//         [--batch=256] [--queue=8] [--adapt-every=0] [--seed=7] [--epochs=8]
//         [--out=<txt>]
//       Run the sharded scoring service over a packed flow-record file:
//       bootstrap on the clean CSV's normal rows, stream the file through
//       the admission queue, print throughput / latency / adaptation
//       summary, including the flows alarmed for non-finite input. Flow
//       files are assumed preprocessed to the clean CSV's feature scale.
//       --detector=Adaptive with --adapt-every serves drift-gated
//       adaptation: each round's window refits only when the gate fires.
//       --out writes one "score verdict" line per flow in admission order
//       (score as %.17g, verdict 1 = alarm); the file is byte-identical at
//       any --shards and lane count (docs/SERVING.md).
//
// Every subcommand rejects a --flag it does not read, and any argument that
// is not a --flag, so a misspelt flag fails instead of falling back to its
// default.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "core/detector_factory.hpp"
#include "core/experience_runner.hpp"
#include "core/explanation.hpp"
#include "eval/robust_threshold.hpp"
#include "data/csv.hpp"
#include "data/experiences.hpp"
#include "data/synth.hpp"
#include "eval/threshold.hpp"
#include "ml/scaler.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "serve/artifact.hpp"
#include "serve/flow_record.hpp"
#include "serve/service.hpp"

namespace {

using namespace cnd;

using Flags = std::map<std::string, std::string>;

Flags parse_flags(int argc, char** argv, int from) {
  Flags out;
  for (int i = from; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0)
      throw std::invalid_argument(a + ": expected --flag or --flag=value");
    const auto eq = a.find('=');
    std::string key, val;
    if (eq == std::string::npos) {
      key.assign(a, 2, std::string::npos);
      val.assign(1, '1');
    } else {
      key.assign(a, 2, eq - 2);
      val.assign(a, eq + 1, std::string::npos);
    }
    out.insert_or_assign(std::move(key), std::move(val));
  }
  return out;
}

/// Throws std::invalid_argument naming the first `--key` in `f` that is not
/// in `known`, the flags the subcommand reads. Each cmd_* calls it before it
/// reads a file.
void require_known(const Flags& f, std::initializer_list<std::string_view> known) {
  for (const auto& entry : f)
    if (std::find(known.begin(), known.end(), entry.first) == known.end())
      throw std::invalid_argument("--" + entry.first + ": unknown flag");
}

std::string flag(const Flags& f, const std::string& k, const std::string& def) {
  auto it = f.find(k);
  return it == f.end() ? def : it->second;
}

/// `--k` (or `def` when absent) as an unsigned integer: digits only, so no
/// sign, no trailing junk and no overflow. std::stoull would wrap "-1" to
/// 2^64 - 1 and read "2abc" as 2. Throws std::invalid_argument naming the
/// flag.
std::uint64_t uint_flag(const Flags& f, const std::string& k, const std::string& def) {
  const std::string v = flag(f, k, def);
  std::uint64_t x = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec != std::errc() || end != v.data() + v.size())
    throw std::invalid_argument("--" + k + "=" + v +
                                ": expected an unsigned integer");
  return x;
}

/// `--k` (or `def` when absent) as a finite real number with no trailing
/// junk. Throws std::invalid_argument naming the flag.
double real_flag(const Flags& f, const std::string& k, const std::string& def) {
  const std::string v = flag(f, k, def);
  double x = 0.0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec != std::errc() || end != v.data() + v.size() || !std::isfinite(x))
    throw std::invalid_argument("--" + k + "=" + v +
                                ": expected a finite number");
  return x;
}

int usage() {
  std::fprintf(stderr,
               "usage: cnd <gen|run|score|pack|snapshot|restore|serve|"
               "detectors> [--flags]\n"
               "  gen       --dataset=x_iiotid|wustl_iiot|cicids2017|unsw_nb15 "
               "--out=FILE [--scale=0.25] [--seed=42]\n"
               "  run       --data=FILE [--detector=CND-IDS] [--experiences=5] "
               "[--seed=7] [--epochs=8] [--ann-nprobe=N]\n"
               "            --detector takes any name from `cnd detectors`, "
               "e.g. Adaptive (drift-gated CND-IDS: refits only when "
               "Page-Hinkley signals drift)\n"
               "            --ann-nprobe=N (N >= 1) probes N IVF clusters "
               "instead of exact neighbor search (docs/ANN.md); only LOF, "
               "kNN, CND-IDS, and Adaptive have a neighbor path\n"
               "  score     --train=FILE --test=FILE [--quantile=0.99] "
               "[--epochs=8]\n"
               "  pack      --data=FILE --out=FILE\n"
               "  snapshot  --data=FILE --out=FILE [--detector=CND-IDS] "
               "[--seed=7] [--epochs=8] [--fpr=0.01]\n"
               "  restore   --artifact=FILE --test=FILE [--explain]\n"
               "  serve     --flows=FILE --clean=FILE [--detector=CND-IDS] "
               "[--shards=2] [--batch=256] [--queue=8] [--adapt-every=0] "
               "[--seed=7] [--epochs=8] [--out=FILE]\n"
               "            --out writes one \"score verdict\" line per flow, in "
               "admission order\n"
               "  detectors\n"
               "  A flag the subcommand does not read is an error.\n");
  return 2;
}

int cmd_detectors(const Flags& f) {
  require_known(f, {});
  for (const std::string& name : core::detector_names()) {
    const char* kind = "";
    switch (core::detector_kind(name)) {
      case core::DetectorKind::kContinual: kind = "continual"; break;
      case core::DetectorKind::kStaticNovelty: kind = "static (fit on N_c)"; break;
      case core::DetectorKind::kStaticOutlier:
        kind = "static (fit on first stream)";
        break;
    }
    // Snapshot capability decides which detectors `cnd snapshot`/`cnd serve`
    // accept; construction without training is cheap.
    const bool snap = core::make_detector(name)->supports_snapshot();
    std::printf("%-10s %-28s %-10s %s\n", name.c_str(), kind,
                snap ? "snapshot" : "-",
                core::detector_description(name).c_str());
  }
  return 0;
}

int cmd_gen(const Flags& f) {
  require_known(f, {"dataset", "out", "scale", "seed"});
  const std::string name = flag(f, "dataset", "unsw_nb15");
  const std::string out = flag(f, "out", "");
  if (out.empty()) return usage();
  const double scale = real_flag(f, "scale", "0.25");
  const auto seed = uint_flag(f, "seed", "42");

  data::Dataset ds;
  if (name == "x_iiotid")
    ds = data::make_x_iiotid(seed, scale);
  else if (name == "wustl_iiot")
    ds = data::make_wustl_iiot(seed, scale);
  else if (name == "cicids2017")
    ds = data::make_cicids2017(seed, scale);
  else if (name == "unsw_nb15")
    ds = data::make_unsw_nb15(seed, scale);
  else
    return usage();

  data::save_csv(ds, out);
  std::printf("wrote %s: %zu rows, %zu features, %zu attack families\n",
              out.c_str(), ds.size(), ds.n_features(), ds.n_attack_classes());
  return 0;
}

int cmd_run(const Flags& f) {
  require_known(f,
                {"data", "detector", "experiences", "seed", "epochs", "ann-nprobe"});
  const std::string path = flag(f, "data", "");
  if (path.empty()) return usage();
  const auto m = static_cast<std::size_t>(uint_flag(f, "experiences", "5"));
  const auto seed = uint_flag(f, "seed", "7");

  data::Dataset ds = data::load_csv(path, "cli");
  data::ExperienceSet es =
      data::prepare_experiences(ds, {.n_experiences = m, .seed = seed});

  const std::string detector = flag(f, "detector", "CND-IDS");
  core::DetectorConfig cfg;
  cfg.seed = seed;
  cfg.cnd.cfe.epochs = static_cast<std::size_t>(uint_flag(f, "epochs", "8"));
  cfg.cnd.seed = seed;
  const auto nprobe = static_cast<std::size_t>(uint_flag(f, "ann-nprobe", "0"));
  if (f.count("ann-nprobe") != 0) {
    if (nprobe == 0) {
      std::fprintf(stderr,
                   "run: --ann-nprobe must be >= 1 (omit the flag for exact "
                   "neighbor search)\n");
      return 2;
    }
    cfg.lof.ann.nprobe = nprobe;
    cfg.knn.ann.nprobe = nprobe;
    cfg.cnd.cfe.ann.nprobe = nprobe;
    if (detector != "LOF" && detector != "kNN" && detector != "CND-IDS" &&
        detector != "Adaptive")
      std::fprintf(stderr,
                   "run: warning: --ann-nprobe has no effect on '%s' — only "
                   "LOF, kNN, CND-IDS, and Adaptive run neighbor queries\n",
                   detector.c_str());
  }
  const core::RunResult res =
      core::run_detector(detector, cfg, es, {.seed = seed, .verbose = true});

  std::printf("\nAVG=%.4f FwdTrans=%.4f BwdTrans=%+.4f  (fit %.0f ms, "
              "%.4f ms/sample inference)\n",
              res.avg(), res.fwd(), res.bwd(), res.fit_ms_total,
              res.infer_ms_per_sample);
  return 0;
}

int cmd_score(const Flags& f) {
  require_known(f, {"train", "test", "quantile", "epochs"});
  const std::string train_path = flag(f, "train", "");
  const std::string test_path = flag(f, "test", "");
  if (train_path.empty() || test_path.empty()) return usage();
  const double q = real_flag(f, "quantile", "0.99");
  // quantile_threshold's own check would fire only after training.
  if (!(q > 0.0 && q < 1.0))
    throw std::invalid_argument("--quantile=" + flag(f, "quantile", "") +
                                ": must lie in (0, 1)");

  data::Dataset train = data::load_csv(train_path, "train");
  data::Dataset test = data::load_csv(test_path, "test");

  // N_c = rows labeled normal in the training file; the full (unlabeled)
  // training matrix is the stream CND-IDS adapts to.
  std::vector<std::size_t> normal_rows;
  for (std::size_t i = 0; i < train.size(); ++i)
    if (train.y[i] == 0) normal_rows.push_back(i);
  if (normal_rows.size() < 16) {
    std::fprintf(stderr, "score: need at least 16 normal rows in --train\n");
    return 1;
  }

  ml::StandardScaler scaler;
  Matrix n_clean = scaler.fit_transform(train.x.take_rows(normal_rows));
  Matrix x_stream = scaler.transform(train.x);
  Matrix x_test = scaler.transform(test.x);

  core::DetectorConfig cfg;
  cfg.cnd.cfe.epochs = static_cast<std::size_t>(uint_flag(f, "epochs", "8"));
  const auto det = core::make_detector("CND-IDS", cfg);
  Matrix seed_x;
  std::vector<int> seed_y;
  det->setup(core::SetupContext{n_clean, seed_x, seed_y});
  det->observe_experience(x_stream);

  const double tau = eval::quantile_threshold(det->score(n_clean), q);

  const auto scores = det->score(x_test);
  // Verdicts read the raw features: scaling maps a constant column to 0,
  // which would hide a NaN in it.
  std::vector<int> verdicts;
  eval::verdicts_into(test.x, scores, tau, verdicts);
  std::printf("# row,score,verdict  (threshold=%.6f at q=%.2f)\n", tau, q);
  for (std::size_t i = 0; i < scores.size(); ++i)
    std::printf("%zu,%.6f,%s\n", i, scores[i], verdicts[i] ? "attack" : "normal");
  return 0;
}

int cmd_pack(const Flags& f) {
  require_known(f, {"data", "out"});
  const std::string data_path = flag(f, "data", "");
  const std::string out = flag(f, "out", "");
  if (data_path.empty() || out.empty()) return usage();

  data::Dataset ds = data::load_csv(data_path, "pack");
  serve::FlowRecordWriter writer(out, ds.x.cols());
  writer.append(ds.x);
  writer.close();
  std::printf("packed %zu flows x %zu features into %s\n", writer.rows_written(),
              ds.x.cols(), out.c_str());
  return 0;
}

/// Train a snapshot-capable registry detector for `cnd snapshot` the way
/// `cnd score` trains CND-IDS: normal rows form N_c, the full (unlabeled)
/// file is the first stream. `cnd serve` trains through
/// ScoringService::bootstrap instead, whose first stream is N_c itself.
std::unique_ptr<core::ContinualDetector> train_for_serving(
    const data::Dataset& train, const std::string& detector,
    const core::DetectorConfig& cfg, Matrix& n_clean_out) {
  std::vector<std::size_t> normal_rows;
  for (std::size_t i = 0; i < train.size(); ++i)
    if (train.y[i] == 0) normal_rows.push_back(i);
  if (normal_rows.size() < 32)
    throw std::invalid_argument("need at least 32 normal rows in the data file");
  n_clean_out = train.x.take_rows(normal_rows);

  auto det = core::make_detector(detector, cfg);
  if (!det->supports_snapshot())
    throw std::invalid_argument(
        detector + " does not support snapshots (see `cnd detectors`)");
  Matrix seed_x;
  std::vector<int> seed_y;
  det->setup(core::SetupContext{n_clean_out, seed_x, seed_y});
  det->observe_experience(train.x);
  return det;
}

/// POT tail quantile of `cnd snapshot`'s threshold; --fpr must lie below
/// the tail mass 1 - kSnapshotTailQuantile.
constexpr double kSnapshotTailQuantile = 0.9;

int cmd_snapshot(const Flags& f) {
  require_known(f, {"data", "out", "detector", "seed", "epochs", "fpr"});
  const std::string data_path = flag(f, "data", "");
  const std::string out = flag(f, "out", "");
  if (data_path.empty() || out.empty()) return usage();
  const std::string detector = flag(f, "detector", "CND-IDS");
  const auto seed = uint_flag(f, "seed", "7");
  const double fpr = real_flag(f, "fpr", "0.01");
  // pot_threshold's own bound (target_prob below the tail mass), checked
  // before training rather than after it.
  if (!(fpr > 0.0 && fpr < 1.0 - kSnapshotTailQuantile))
    throw std::invalid_argument("--fpr=" + flag(f, "fpr", "") +
                                ": must lie in (0, 0.1), below the POT tail "
                                "mass at tail quantile 0.9");

  core::DetectorConfig cfg;
  cfg.seed = seed;
  cfg.cnd.seed = seed;
  cfg.cnd.cfe.epochs = static_cast<std::size_t>(uint_flag(f, "epochs", "8"));

  data::Dataset train = data::load_csv(data_path, "snapshot");
  Matrix n_clean;
  const auto det = train_for_serving(train, detector, cfg, n_clean);
  const double tau = eval::pot_threshold(
      det->score(n_clean),
      {.tail_quantile = kSnapshotTailQuantile, .target_prob = fpr});

  const auto artifact = serve::make_artifact(1, detector, tau, *det);
  serve::save_artifact(out, *artifact);
  std::printf("saved %s artifact v%llu to %s (threshold %.6g, %zu model bytes)\n"
              "  %s\n",
              detector.c_str(),
              static_cast<unsigned long long>(artifact->version), out.c_str(),
              tau, artifact->model_bytes.size(),
              core::detector_description(detector).c_str());
  return 0;
}

int cmd_restore(const Flags& f) {
  require_known(f, {"artifact", "test", "explain"});
  const std::string artifact_path = flag(f, "artifact", "");
  const std::string test_path = flag(f, "test", "");
  if (artifact_path.empty() || test_path.empty()) return usage();

  const serve::ServingArtifact artifact = serve::load_artifact(artifact_path);
  const auto replica = serve::restore_replica(artifact);
  std::fprintf(stderr, "restored %s replica from artifact v%llu\n  %s\n",
               artifact.detector.c_str(),
               static_cast<unsigned long long>(artifact.version),
               core::detector_description(artifact.detector).c_str());

  data::Dataset test = data::load_csv(test_path, "test");
  const auto scores = replica->score(test.x);
  std::vector<int> verdicts;
  eval::verdicts_into(test.x, scores, artifact.threshold, verdicts);
  const bool explain = flag(f, "explain", "") == "1";
  std::vector<std::vector<core::FeatureAttribution>> attrs;
  if (explain) attrs = core::explain_detector(*replica, test.x, /*top_k=*/3);

  std::printf("# row,score,verdict%s  (threshold=%.6f from artifact v%llu)\n",
              explain ? ",top_latent_features" : "", artifact.threshold,
              static_cast<unsigned long long>(artifact.version));
  for (std::size_t i = 0; i < scores.size(); ++i) {
    std::printf("%zu,%.6f,%s", i, scores[i], verdicts[i] ? "attack" : "normal");
    // A non-finite flow has no meaningful attribution to print.
    if (explain && verdicts[i] && eval::finite_flow(test.x.row(i), scores[i]))
      std::printf(",\"%s\"", core::format_attribution(attrs[i]).c_str());
    std::printf("\n");
  }
  return 0;
}

int cmd_serve(const Flags& f) {
  require_known(f, {"flows", "clean", "detector", "shards", "batch", "queue",
                    "adapt-every", "seed", "epochs", "out"});
  const std::string flows_path = flag(f, "flows", "");
  const std::string clean_path = flag(f, "clean", "");
  if (flows_path.empty() || clean_path.empty()) return usage();
  const auto seed = uint_flag(f, "seed", "7");
  const auto batch_rows = static_cast<std::size_t>(uint_flag(f, "batch", "256"));
  if (batch_rows == 0) return usage();

  serve::ServiceConfig cfg;
  cfg.detector = flag(f, "detector", "CND-IDS");
  cfg.detector_cfg.seed = seed;
  cfg.detector_cfg.cnd.seed = seed;
  cfg.detector_cfg.cnd.cfe.epochs =
      static_cast<std::size_t>(uint_flag(f, "epochs", "8"));
  cfg.shards = static_cast<std::size_t>(uint_flag(f, "shards", "2"));
  cfg.queue_capacity = static_cast<std::size_t>(uint_flag(f, "queue", "8"));
  cfg.adapt_interval_flows =
      static_cast<std::size_t>(uint_flag(f, "adapt-every", "0"));

  // Latency histograms need observability on; metrics are a write-only side
  // channel, so the scores are unaffected (docs/OBSERVABILITY.md).
  obs::set_enabled(true);

  serve::FlowRecordFile file(flows_path);
  if (file.rows() == 0) {
    std::fprintf(stderr, "serve: flow file %s holds no flows\n", flows_path.c_str());
    return 1;
  }
  data::Dataset clean = data::load_csv(clean_path, "clean");
  std::vector<std::size_t> normal_rows;
  for (std::size_t i = 0; i < clean.size(); ++i)
    if (clean.y[i] == 0) normal_rows.push_back(i);
  if (normal_rows.size() < 32) {
    std::fprintf(stderr, "serve: need at least 32 normal rows in --clean\n");
    return 1;
  }
  if (file.dim() != clean.x.cols()) {
    std::fprintf(stderr, "serve: flow file has %zu features, --clean has %zu\n",
                 file.dim(), clean.x.cols());
    return 1;
  }

  // Opened before anything trains, so an unwritable path fails at once.
  const std::string out = flag(f, "out", "");
  std::ofstream dump;
  if (!out.empty()) {
    dump.open(out);
    if (!dump) throw std::runtime_error("cannot write " + out);
  }

  serve::ScoringService svc(cfg);
  obs::Stopwatch boot_timer;
  svc.bootstrap(clean.x.take_rows(normal_rows));
  std::fprintf(stderr, "serve: bootstrapped %s on %zu clean rows (%.0f ms), "
               "threshold %.6g, %zu shard(s)\n",
               cfg.detector.c_str(), normal_rows.size(),
               boot_timer.elapsed_ms(), svc.threshold(), cfg.shards);

  Matrix batch;
  std::size_t retries = 0;
  obs::Stopwatch soak_timer;
  for (std::size_t lo = 0; lo < file.rows(); lo += batch_rows) {
    file.copy_rows_into(lo, std::min(lo + batch_rows, file.rows()), batch);
    while (!svc.try_submit(batch)) {
      ++retries;
      std::this_thread::yield();
    }
  }
  svc.drain();
  const double soak_ms = soak_timer.elapsed_ms();
  svc.shutdown();

  if (!out.empty()) {
    dump.precision(17);  // %.17g: a score round-trips exactly
    for (const auto& b : svc.results())
      for (std::size_t i = 0; i < b.scores.size(); ++i)
        dump << b.scores[i] << ' ' << b.verdicts[i] << '\n';
    dump.close();
    if (!dump) throw std::runtime_error("cannot write " + out);
  }

  std::size_t alarms = 0;
  for (const auto& b : svc.results())
    for (int v : b.verdicts) alarms += static_cast<std::size_t>(v);
  const obs::Histogram& score_ms = obs::metrics().histogram("serve.score_ms");

  std::printf("flows          %llu\n",
              static_cast<unsigned long long>(svc.flows_admitted()));
  std::printf("flows/sec      %.0f\n",
              static_cast<double>(svc.flows_admitted()) / (soak_ms / 1000.0));
  std::printf("latency        p50 <= %.3g ms, p99 <= %.3g ms per batch\n",
              score_ms.quantile(0.50), score_ms.quantile(0.99));
  std::printf("rejected       %llu (%zu producer retries)\n",
              static_cast<unsigned long long>(svc.rejected()), retries);
  std::printf("adaptations    %llu (artifact v%llu, %llu replica swaps)\n",
              static_cast<unsigned long long>(svc.adaptations()),
              static_cast<unsigned long long>(svc.artifact_version()),
              static_cast<unsigned long long>(svc.swaps()));
  std::printf("alarms         %zu (rate %.4f)\n", alarms,
              static_cast<double>(alarms) /
                  static_cast<double>(svc.flows_admitted()));
  std::printf("non-finite     %llu (alarmed, kept out of adaptation)\n",
              static_cast<unsigned long long>(
                  obs::metrics().counter("serve.nonfinite_total").value()));
  if (!out.empty()) std::printf("verdicts       %s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const auto flags = parse_flags(argc, argv, 2);
    if (cmd == "gen") return cmd_gen(flags);
    if (cmd == "run") return cmd_run(flags);
    if (cmd == "score") return cmd_score(flags);
    if (cmd == "pack") return cmd_pack(flags);
    if (cmd == "snapshot") return cmd_snapshot(flags);
    if (cmd == "restore") return cmd_restore(flags);
    if (cmd == "serve") return cmd_serve(flags);
    if (cmd == "detectors") return cmd_detectors(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cnd %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
