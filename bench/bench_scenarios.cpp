// Scenario × detector grid (docs/SCENARIOS.md).
//
// Runs every requested scenario generator (src/scenario) against every
// requested registry detector and reports, per cell, the paper's summaries
// (AVG / FwdTrans / BwdTrans) next to the continual-learning literature's
// (BWT / FWT / forgetting). Writes:
//   scenario_grid.csv      one row per (scenario, detector) cell
//   BENCH_scenarios.json   the same grid plus full R[train, test] matrices
// Neither artifact contains a wall-clock value, so both are byte-identical
// across runs, thread counts, and --metrics-out settings at a fixed seed.
//
// Extra flags on top of the common harness set:
//   --scenarios=a,b   comma list (default: every registered scenario)
//   --detectors=x,y   comma list of registry names
//                     (default: CND-IDS,Adaptive,PCA,DIF)
//   --dataset=name    x_iiotid|wustl_iiot|cicids2017|unsw_nb15
//                     (default: unsw_nb15)
//   --experiences=N   stream length m (default: the dataset's paper m)
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "data/csv.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace cnd;

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t lo = 0;
  while (lo <= s.size()) {
    const std::size_t hi = std::min(s.find(',', lo), s.size());
    if (hi > lo) out.push_back(s.substr(lo, hi - lo));
    lo = hi + 1;
  }
  return out;
}

data::Dataset make_dataset(const std::string& name, std::uint64_t seed,
                           double scale) {
  if (name == "x_iiotid") return data::make_x_iiotid(seed, scale);
  if (name == "wustl_iiot") return data::make_wustl_iiot(seed, scale);
  if (name == "cicids2017") return data::make_cicids2017(seed, scale);
  if (name == "unsw_nb15") return data::make_unsw_nb15(seed, scale);
  throw std::invalid_argument(
      "bench_scenarios: unknown --dataset '" + name +
      "' (x_iiotid|wustl_iiot|cicids2017|unsw_nb15)");
}

struct Cell {
  std::string scenario;
  core::RunResult res;
};

void append_json_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(
      argc, argv, {"dataset", "scenarios", "detectors", "experiences"});
  // An absent or empty extra flag keeps its default.
  const auto extra = [&](const std::string& name) {
    const auto it = opt.extra.find(name);
    return it == opt.extra.end() ? std::string() : it->second;
  };

  const std::string dataset_flag =
      extra("dataset").empty() ? "unsw_nb15" : extra("dataset");
  std::vector<std::string> scenarios = scenario::scenario_names();
  if (!extra("scenarios").empty()) scenarios = split_csv(extra("scenarios"));
  std::vector<std::string> detectors{"CND-IDS", "Adaptive", "PCA", "DIF"};
  if (!extra("detectors").empty()) detectors = split_csv(extra("detectors"));

  const data::Dataset ds = make_dataset(dataset_flag, opt.seed, opt.size_scale);
  std::size_t m = bench::paper_m(ds.name);
  if (!extra("experiences").empty())
    m = bench::detail::number_flag<std::size_t>(
        "--experiences=" + extra("experiences"), 14);

  std::printf("=== Scenario x detector grid (docs/SCENARIOS.md) ===\n");
  std::printf("(dataset=%s scale=%.2f seed=%llu m=%zu)\n\n", ds.name.c_str(),
              opt.size_scale, static_cast<unsigned long long>(opt.seed), m);

  // Build every scenario's experience stream up front (cheap next to the
  // detector fits), then fan the grid cells out across the pool. Each cell
  // builds its own detector from the shared paper config, so cells are
  // independent and the aggregate is thread-count invariant.
  scenario::ScenarioOptions sopt;
  sopt.n_experiences = m;
  sopt.seed = opt.seed;
  std::vector<data::ExperienceSet> streams;
  streams.reserve(scenarios.size());
  for (const std::string& name : scenarios)
    streams.push_back(scenario::make_scenario(name)->build(ds, sopt));

  const std::size_t n_cells = scenarios.size() * detectors.size();
  std::vector<std::optional<Cell>> cells(n_cells);
  bench::parallel_jobs(n_cells, [&](std::size_t i) {
    const std::size_t s = i / detectors.size();
    const std::size_t d = i % detectors.size();
    core::RunResult res = bench::run_detector(detectors[d], streams[s],
                                              opt.seed, {.seed = opt.seed});
    cells[i] = Cell{scenarios[s], std::move(res)};
  });

  std::vector<std::vector<double>> csv_rows;
  std::vector<std::string> csv_labels;
  std::string json = "{\n  \"bench\": \"bench_scenarios\",\n";
  json += "  \"record\": \"scenario x detector continual-learning grid; "
          "metric formulas in docs/SCENARIOS.md; no wall-clock values so "
          "the file is byte-stable at a fixed seed\",\n";
  json += "  \"dataset\": \"" + ds.name + "\",\n";
  json += "  \"seed\": " + std::to_string(opt.seed) + ",\n";
  json += "  \"scale\": ";
  append_json_number(json, opt.size_scale);
  json += ",\n  \"experiences\": " + std::to_string(m) + ",\n";
  json += "  \"grid\": [";

  bool first_cell = true;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    std::printf("%s (%s):\n", scenarios[s].c_str(),
                scenario::make_scenario(scenarios[s])->summary().c_str());
    std::printf("  %-10s %8s %9s %9s %8s %8s %10s\n", "detector", "AVG",
                "FwdTrans", "BwdTrans", "BWT", "FWT", "Forgetting");
    for (std::size_t d = 0; d < detectors.size(); ++d) {
      const Cell& cell = *cells[s * detectors.size() + d];
      const eval::ClResultMatrix& r = cell.res.f1;
      std::printf("  %-10s %8.4f %9.4f %+9.4f %+8.4f %8.4f %10.4f\n",
                  cell.res.detector_name.c_str(), r.avg_current(),
                  r.fwd_transfer(), r.bwd_transfer(), r.bwt(), r.fwt(),
                  r.avg_forgetting());

      csv_labels.push_back(cell.scenario + "/" + cell.res.detector_name);
      csv_rows.push_back({r.avg_current(), r.fwd_transfer(), r.bwd_transfer(),
                          r.bwt(), r.fwt(), r.avg_forgetting()});

      json += first_cell ? "\n" : ",\n";
      first_cell = false;
      json += "    {\"scenario\": \"" + cell.scenario + "\", \"detector\": \"" +
              cell.res.detector_name + "\",\n     ";
      const struct { const char* key; double v; } nums[] = {
          {"avg_f1", r.avg_current()},    {"fwd_trans", r.fwd_transfer()},
          {"bwd_trans", r.bwd_transfer()}, {"bwt", r.bwt()},
          {"fwt", r.fwt()},                {"avg_forgetting", r.avg_forgetting()},
      };
      for (const auto& kv : nums) {
        json += std::string("\"") + kv.key + "\": ";
        append_json_number(json, kv.v);
        json += ", ";
      }
      json += "\"r_f1\": [";
      for (std::size_t i = 0; i < r.m(); ++i) {
        json += i == 0 ? "[" : ", [";
        for (std::size_t j = 0; j < r.m(); ++j) {
          if (j > 0) json += ", ";
          append_json_number(json, r.get(i, j));
        }
        json += "]";
      }
      json += "]}";

      if (obs::events().enabled())
        obs::events().emit(
            "scenario.cell",
            {{"scenario", cell.scenario}, {"detector", cell.res.detector_name},
             {"avg_f1", r.avg_current()}, {"bwt", r.bwt()},
             {"fwt", r.fwt()}, {"avg_forgetting", r.avg_forgetting()}});
    }
    std::printf("\n");
  }
  json += "\n  ]\n}\n";

  data::save_table_csv("scenario_grid.csv",
                       {"scenario_detector", "avg_f1", "fwd_trans", "bwd_trans",
                        "bwt", "fwt", "avg_forgetting"},
                       csv_rows, csv_labels);
  std::FILE* jf = std::fopen("BENCH_scenarios.json", "w");
  bool written = jf != nullptr;
  if (written) {
    written = std::fputs(json.c_str(), jf) >= 0;
    written = std::fclose(jf) == 0 && written;
  }
  if (!written) {
    std::fprintf(stderr, "bench_scenarios: cannot write BENCH_scenarios.json\n");
    return 1;
  }
  std::printf("Wrote scenario_grid.csv and BENCH_scenarios.json\n");
  return 0;
}
