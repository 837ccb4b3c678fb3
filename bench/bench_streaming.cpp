// Extension bench: experience-windowed CND-IDS vs the streaming wrapper.
//
// The paper's protocol adapts at oracle experience boundaries; a deployment
// cannot see those boundaries. This bench replays the same labeled stream
// through (a) the windowed protocol (adaptation exactly at experience
// boundaries, the paper's setting) and (b) StreamingCndIds (self-triggered
// adaptation via Page-Hinkley drift detection + buffer caps), comparing
// detection quality and adaptation counts. Both run with label-free POT
// thresholds calibrated on the clean window at a 1% target false-alarm
// rate, so the comparison isolates the *scheduling* question.
#include <cstdio>

#include "bench_common.hpp"
#include "core/streaming_cnd_ids.hpp"
#include "data/csv.hpp"
#include "eval/metrics.hpp"
#include "eval/robust_threshold.hpp"

int main(int argc, char** argv) {
  using namespace cnd;
  bench::BenchOptions opt = bench::parse_options(argc, argv);
  if (opt.size_scale > 0.3) opt.size_scale = 0.3;

  std::printf("=== Extension: windowed protocol vs streaming self-scheduling ===\n\n");
  std::printf("  %-12s %16s %14s %12s %12s\n", "dataset", "mode", "adaptations",
              "F1", "recall");

  std::vector<std::vector<double>> csv;
  std::vector<std::string> labels;
  for (data::Dataset& ds : data::make_all_paper_datasets(opt.seed, opt.size_scale)) {
    const data::ExperienceSet es = bench::make_experience_set(ds, opt.seed);

    // (a) Windowed: adapt at each boundary, POT threshold from the clean window.
    {
      const auto det = core::make_detector(
          "CND-IDS", bench::paper_detector_config(opt.seed));
      Matrix seed_x;
      std::vector<int> seed_y;
      det->setup(core::SetupContext{es.n_clean, seed_x, seed_y});
      eval::Confusion total;
      for (const auto& e : es.experiences) {
        det->observe_experience(e.x_train);
        // Label-free POT threshold from the vouched clean window under the
        // current encoder, at a 1% target false-alarm rate (the live stream
        // may be ~50% attacks — never calibrate on it).
        const double tau = eval::pot_threshold(
            det->score(es.n_clean), {.tail_quantile = 0.9, .target_prob = 0.01});
        const auto v = eval::apply_threshold(det->score(e.x_test), tau);
        const auto c = eval::confusion(v, e.y_test);
        total.tp += c.tp;
        total.fp += c.fp;
        total.tn += c.tn;
        total.fn += c.fn;
      }
      std::printf("  %-12s %16s %14zu %12.4f %12.4f\n", ds.name.c_str(),
                  "windowed(oracle)", es.size(), eval::f1_score(total),
                  eval::recall(total));
      csv.push_back({static_cast<double>(es.size()), eval::f1_score(total),
                     eval::recall(total)});
      labels.push_back(ds.name + "/windowed");
    }

    // (b) Streaming: batches of 64 flows, self-scheduled adaptation.
    {
      core::StreamingConfig cfg;
      cfg.detector = bench::paper_cnd_config(opt.seed);
      cfg.min_buffer_rows = 256;
      cfg.max_buffer_rows = 1024;
      cfg.ph_delta = 0.5;
      cfg.ph_lambda = 40.0;
      core::StreamingCndIds mon(cfg);
      mon.bootstrap(es.n_clean);

      eval::Confusion total;
      const std::size_t batch_rows = 64;
      for (const auto& e : es.experiences) {
        for (std::size_t start = 0; start + batch_rows <= e.x_test.rows();
             start += batch_rows) {
          std::vector<std::size_t> idx;
          for (std::size_t i = 0; i < batch_rows; ++i) idx.push_back(start + i);
          const auto r = mon.process_batch(e.x_test.take_rows(idx));
          std::vector<int> truth;
          for (std::size_t i : idx) truth.push_back(e.y_test[i]);
          const auto c = eval::confusion(r.verdicts, truth);
          total.tp += c.tp;
          total.fp += c.fp;
          total.tn += c.tn;
          total.fn += c.fn;
        }
      }
      std::printf("  %-12s %16s %14zu %12.4f %12.4f\n", ds.name.c_str(),
                  "streaming(self)", mon.adaptations(), eval::f1_score(total),
                  eval::recall(total));
      csv.push_back({static_cast<double>(mon.adaptations()),
                     eval::f1_score(total), eval::recall(total)});
      labels.push_back(ds.name + "/streaming");
    }
    std::fflush(stdout);
  }

  data::save_table_csv("streaming_vs_windowed.csv",
                       {"variant", "adaptations", "f1", "recall"}, csv, labels);
  std::printf("\nWrote streaming_vs_windowed.csv\n");
  return 0;
}
