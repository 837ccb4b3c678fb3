// Extension bench (beyond the paper): the full novelty-detector zoo.
//
// Fig. 4 compares the paper's four static baselines; this bench adds the
// library's extended detector set — GMM, Mahalanobis, kNN-distance, HBOS,
// and a plain autoencoder — so downstream users can see where CND-IDS sits
// against the wider classic-ND spectrum on the same protocol.
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "data/csv.hpp"

int main(int argc, char** argv) {
  using namespace cnd;
  bench::BenchOptions opt = bench::parse_options(argc, argv);
  if (opt.size_scale > 0.25) opt.size_scale = 0.25;  // 10 methods x 4 datasets

  std::printf("=== Extension: full static-ND zoo vs CND-IDS (avg F1, all experiences) ===\n\n");

  const std::vector<std::string> methods{"LOF",  "OC-SVM", "PCA",  "DIF", "GMM",
                                         "Maha", "kNN",    "HBOS", "AE",  "CND-IDS"};
  std::map<std::string, std::vector<double>> rows;

  for (data::Dataset& ds : data::make_all_paper_datasets(opt.seed, opt.size_scale)) {
    const data::ExperienceSet es = bench::make_experience_set(ds, opt.seed);

    for (const auto& m : methods) {
      if (m == "CND-IDS") continue;
      rows[m].push_back(
          bench::run_detector(m, es, opt.seed).f1.avg_all());
    }
    rows["CND-IDS"].push_back(
        bench::run_detector("CND-IDS", es, opt.seed, {.seed = opt.seed}).avg());

    std::printf("%s done\n", ds.name.c_str());
    std::fflush(stdout);
  }

  std::printf("\nSummary (rows = method, cols = X-IIoTID WUSTL-IIoT CICIDS2017 UNSW-NB15):\n");
  for (const auto& m : methods) bench::print_row(m, rows[m]);

  std::vector<std::vector<double>> csv;
  for (const auto& m : methods) csv.push_back(rows[m]);
  data::save_table_csv("extended_nd.csv",
                       {"method", "X-IIoTID", "WUSTL-IIoT", "CICIDS2017",
                        "UNSW-NB15"},
                       csv, methods);
  std::printf("Wrote extended_nd.csv\n");
  return 0;
}
