// Reproduces Table III: ablation of the CND loss components, averaged over
// all four datasets.
//
// Paper shape to reproduce (values are paper's, averaged across datasets):
//   CND-IDS                 AVG 76.92%  Bwd +0.87%  Fwd 73.70%
//   w/o L_CS                AVG 66.23%  Bwd +0.09%  Fwd 70.26%   (worse everywhere)
//   w/o L_R                 AVG 72.86%  Bwd -5.44%  Fwd 67.82%   (forgets, generalizes worse)
//   w/o L_R and L_CL        AVG 79.92%  Bwd -11.26% Fwd 71.01%   (best AVG, worst Bwd)
#include <array>
#include <cstdio>

#include "bench_common.hpp"
#include "data/csv.hpp"

int main(int argc, char** argv) {
  using namespace cnd;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);

  std::printf("=== Table III: Ablation of the CND-IDS loss components ===\n");
  std::printf("(scale=%.2f seed=%llu)\n\n", opt.size_scale,
              static_cast<unsigned long long>(opt.seed));

  // A loss is removed by zeroing its weight; L_CS has none, so it has a
  // switch.
  struct Variant {
    const char* label;
    bool cs;
    double lambda_r, lambda_cl;
  };
  const Variant variants[] = {
      {"CND-IDS", true, 0.1, 0.1},
      {"CND-IDS (w/o L_CS)", false, 0.1, 0.1},
      {"CND-IDS (w/o L_R)", true, 0.0, 0.1},
      {"CND-IDS (w/o L_R and L_CL)", true, 0.0, 0.0},
  };

  // Dataset and experience preparation stays serial (one RNG lineage); the
  // dataset x variant protocol runs — the expensive part — fan out over the
  // runtime pool, each writing its own result cell.
  const auto datasets = data::make_all_paper_datasets(opt.seed, opt.size_scale);
  std::vector<data::ExperienceSet> sets;
  sets.reserve(datasets.size());
  for (const data::Dataset& ds : datasets)
    sets.push_back(bench::make_experience_set(ds, opt.seed));

  std::vector<std::array<double, 3>> cell(datasets.size() * 4);
  bench::parallel_jobs(cell.size(), [&](std::size_t job) {
    const std::size_t d = job / 4, v = job % 4;
    core::DetectorConfig cfg = bench::paper_detector_config(opt.seed);
    cfg.cnd.cfe.use_cs = variants[v].cs;
    cfg.cnd.cfe.lambda_r = variants[v].lambda_r;
    cfg.cnd.cfe.lambda_cl = variants[v].lambda_cl;
    const core::RunResult res =
        core::run_detector("CND-IDS", cfg, sets[d], {.seed = opt.seed});
    cell[job] = {res.avg(), res.bwd(), res.fwd()};
  });

  std::vector<std::vector<double>> per_variant(4, std::vector<double>(3, 0.0));
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    std::printf("%s:\n", datasets[d].name.c_str());
    for (std::size_t v = 0; v < 4; ++v) {
      const auto& res = cell[d * 4 + v];
      std::printf("  %-28s AVG=%.4f Bwd=%+.4f Fwd=%.4f\n", variants[v].label,
                  res[0], res[1], res[2]);
      for (std::size_t j = 0; j < 3; ++j) per_variant[v][j] += res[j];
    }
    std::printf("\n");
  }

  const double n = static_cast<double>(datasets.size());
  std::printf("Averaged over all datasets (paper values in parentheses):\n");
  const char* paper[] = {"(76.92 / +0.87 / 73.70)", "(66.23 / +0.09 / 70.26)",
                         "(72.86 / -5.44 / 67.82)", "(79.92 / -11.26 / 71.01)"};
  std::vector<std::vector<double>> csv;
  std::vector<std::string> labels;
  for (std::size_t v = 0; v < 4; ++v) {
    for (double& x : per_variant[v]) x /= n;
    std::printf("  %-28s AVG=%6.2f%% Bwd=%+6.2f%% Fwd=%6.2f%%   %s\n",
                variants[v].label, 100.0 * per_variant[v][0],
                100.0 * per_variant[v][1], 100.0 * per_variant[v][2], paper[v]);
    csv.push_back(per_variant[v]);
    labels.push_back(variants[v].label);
  }

  data::save_table_csv("table3_ablation.csv", {"variant", "avg", "bwd", "fwd"},
                       csv, labels);
  std::printf("Wrote table3_ablation.csv\n");
  return 0;
}
