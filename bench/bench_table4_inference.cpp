// Reproduces Table IV: average inference time (ms) per test sample for
// CND-IDS, ADCN, LwF, DIF, and PCA.
//
// Paper shape to reproduce: PCA fastest; CND-IDS within a whisker of PCA
// and the fastest continual method; DIF slowest by orders of magnitude.
// Absolute numbers differ from the paper (RTX 3090 + batched PyTorch there,
// CPU lanes here); the ordering is the claim under test.
//
// Each figure is RunResult::infer_ms_per_sample, the protocol's own timer
// averaged over every evaluation call of one full run. The detectors run
// one after another, never in parallel, so no detector's timing shares the
// thread pool with another's.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "data/csv.hpp"

int main(int argc, char** argv) {
  using namespace cnd;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  // Capped at 0.25 so the default flags reproduce the EXPERIMENTS.md rows.
  const double scale = std::min(opt.size_scale, 0.25);

  std::printf("=== Table IV: inference time per test sample (ms) ===\n");
  std::printf("(UNSW-NB15 scale=%.2f seed=%llu lanes=%zu)\n\n", scale,
              static_cast<unsigned long long>(opt.seed), runtime::threads());

  const data::ExperienceSet es = bench::make_experience_set(
      data::make_unsw_nb15(opt.seed, scale), opt.seed);

  struct Method {
    const char* name;
    double paper_ms;  // RTX 3090, batched PyTorch
  };
  const Method methods[] = {{"CND-IDS", 0.0019}, {"ADCN", 0.4061},
                            {"LwF", 0.0677},     {"DIF", 1.0535},
                            {"PCA", 0.0018}};

  std::vector<std::string> labels;
  std::vector<std::vector<double>> rows;
  std::printf("  %-8s %10s %10s\n", "method", "paper", "ours");
  for (const Method& m : methods) {
    const core::RunResult res = bench::run_detector(
        m.name, es, opt.seed, {.seed = opt.seed, .verbose = opt.verbose});
    std::printf("  %-8s %10.4f %10.5f\n", m.name, m.paper_ms,
                res.infer_ms_per_sample);
    labels.push_back(m.name);
    rows.push_back({m.paper_ms, res.infer_ms_per_sample});
  }

  const auto faster = [](const std::vector<double>& a,
                         const std::vector<double>& b) { return a[1] < b[1]; };
  const auto [fastest, slowest] =
      std::minmax_element(rows.begin(), rows.end(), faster);
  std::printf("\nfastest %s (paper: PCA), slowest %s (paper: DIF)\n",
              labels[static_cast<std::size_t>(fastest - rows.begin())].c_str(),
              labels[static_cast<std::size_t>(slowest - rows.begin())].c_str());

  data::save_table_csv("table4_inference.csv",
                       {"method", "paper_ms_per_sample", "ms_per_sample"},
                       rows, labels);
  std::printf("Wrote table4_inference.csv\n");
  return 0;
}
