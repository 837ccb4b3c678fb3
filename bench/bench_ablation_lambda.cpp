// Design-choice ablation (beyond the paper): the lambda_R / lambda_CL grid.
//
// The paper sets both to 0.1 "after careful experimentation"; this bench
// regenerates that experimentation on X-IIoTID: lambda_R trades current-task
// fit against feature generality, lambda_CL trades plasticity against
// forgetting (watch BwdTrans drop as lambda_CL -> 0).
#include <cstdio>

#include "bench_common.hpp"
#include "data/csv.hpp"

int main(int argc, char** argv) {
  using namespace cnd;
  bench::BenchOptions opt = bench::parse_options(argc, argv);
  if (opt.size_scale > 0.25) opt.size_scale = 0.25;

  std::printf("=== Ablation: lambda_R x lambda_CL grid (X-IIoTID) ===\n\n");
  std::printf("  %-8s %-8s %8s %10s %10s\n", "l_R", "l_CL", "AVG", "FwdTrans",
              "BwdTrans");

  data::Dataset ds = data::make_x_iiotid(opt.seed, opt.size_scale);
  const data::ExperienceSet es = bench::make_experience_set(ds, opt.seed);

  std::vector<std::vector<double>> csv;
  for (double lr : {0.0, 0.1, 0.5}) {
    for (double lcl : {0.0, 0.1, 0.5}) {
      core::DetectorConfig cfg = bench::paper_detector_config(opt.seed);
      cfg.cnd.cfe.lambda_r = lr;
      cfg.cnd.cfe.lambda_cl = lcl;
      const core::RunResult r =
          core::run_detector("CND-IDS", cfg, es, {.seed = opt.seed});
      std::printf("  %-8.2f %-8.2f %8.4f %10.4f %+10.4f%s\n", lr, lcl, r.avg(),
                  r.fwd(), r.bwd(),
                  (lr == 0.1 && lcl == 0.1) ? "   <- paper setting" : "");
      std::fflush(stdout);
      csv.push_back({lr, lcl, r.avg(), r.fwd(), r.bwd()});
    }
  }
  data::save_table_csv("ablation_lambda.csv",
                       {"lambda_r", "lambda_cl", "avg", "fwd", "bwd"}, csv);
  std::printf("Wrote ablation_lambda.csv\n");
  return 0;
}
