// Streaming monitor: CND-IDS without experience boundaries.
//
// The paper's protocol hands the model whole experiences; a real monitor
// sees mini-batches. Here serve::ScoringService scores each batch as it is
// admitted and runs an adaptation round every 256 flows on the drift-gated
// "Adaptive" detector: its Page-Hinkley gate decides for itself whether a
// round's window refits the model or is skipped. This example replays a
// drifting CICIDS2017-like stream in 64-flow batches and logs every new
// artifact version the service published, with the gate's refits and skips.
//
//   ./streaming_monitor [seed]
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <thread>

#include "data/experiences.hpp"
#include "data/synth.hpp"
#include "eval/metrics.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"

int main(int argc, char** argv) {
  using namespace cnd;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 21;

  // Build the drifting stream: reuse the experience machinery for the clean
  // window + a time-ordered labeled stream, then replay it batch by batch.
  data::Dataset ds = data::make_cicids2017(seed, /*size_scale=*/0.5);
  data::ExperienceSet es =
      data::prepare_experiences(ds, {.n_experiences = 5, .seed = seed});

  serve::ServiceConfig cfg;
  cfg.detector = "Adaptive";
  cfg.detector_cfg.seed = seed;
  cfg.detector_cfg.cnd.seed = seed;
  cfg.detector_cfg.cnd.cfe.epochs = 6;
  cfg.adapt_interval_flows = 256;
  serve::ScoringService monitor(cfg);
  monitor.bootstrap(es.n_clean);
  std::printf("bootstrapped on %zu vouched flows (artifact v%llu)\n\n",
              es.n_clean.rows(),
              static_cast<unsigned long long>(monitor.artifact_version()));

  // The gate's decisions are only visible through its counters.
  const obs::Counter& refits = obs::metrics().counter("adaptive.drift_signals_total");
  const obs::Counter& skips = obs::metrics().counter("adaptive.skips_total");
  const std::size_t batch_rows = 64;
  std::size_t batch_no = 0;
  std::uint64_t version = monitor.artifact_version();
  std::vector<int> truth;
  for (const auto& exp : es.experiences) {
    // Replay this window's labeled test flows as the live stream.
    for (std::size_t start = 0; start + batch_rows <= exp.x_test.rows();
         start += batch_rows) {
      std::vector<std::size_t> idx(batch_rows);
      std::iota(idx.begin(), idx.end(), start);
      const Matrix batch = exp.x_test.take_rows(idx);
      while (!monitor.try_submit(batch)) std::this_thread::yield();
      for (std::size_t i : idx) truth.push_back(exp.y_test[i]);

      if (monitor.artifact_version() != version) {
        version = monitor.artifact_version();
        std::printf("batch %4zu: artifact v%llu (%llu refits, %llu skips so "
                    "far, threshold now %.2f)\n",
                    batch_no, static_cast<unsigned long long>(version),
                    static_cast<unsigned long long>(refits.value()),
                    static_cast<unsigned long long>(skips.value()),
                    monitor.threshold());
      }
      ++batch_no;
    }
  }
  monitor.drain();
  monitor.shutdown();

  std::vector<int> verdicts;
  for (const serve::BatchResult& r : monitor.results())
    verdicts.insert(verdicts.end(), r.verdicts.begin(), r.verdicts.end());
  const eval::Confusion total = eval::confusion(verdicts, truth);
  std::printf("\nstream replay done: %llu flows in %zu batches, %llu rounds "
              "(%llu refits, %llu skips)\n",
              static_cast<unsigned long long>(monitor.flows_admitted()), batch_no,
              static_cast<unsigned long long>(monitor.adaptations()),
              static_cast<unsigned long long>(refits.value()),
              static_cast<unsigned long long>(skips.value()));
  std::printf("online totals: precision %.3f recall %.3f F1 %.3f "
              "(label-free thresholds throughout)\n",
              eval::precision(total), eval::recall(total), eval::f1_score(total));
  return 0;
}
