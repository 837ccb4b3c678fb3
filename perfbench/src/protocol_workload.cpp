// protocol: the paper's Fig. 3 job. CND-IDS with the paper configuration
// runs through core::run_protocol on synthetic UNSW-NB15 (m = 5), read from
// a CSV file as `cnd run` reads it: for each experience it trains on the
// unlabeled stream, then scores every experience's test split. The job is
// repeated until the run's seconds are used up; every repetition must
// produce the same R matrices.
#include <algorithm>
#include <cmath>
#include <memory>

#include "bench_common.hpp"
#include "core/detector_factory.hpp"
#include "data/csv.hpp"
#include "data/synth.hpp"
#include "runtime/thread_pool.hpp"
#include "workloads.hpp"

namespace cnd::perfbench {

namespace {

constexpr double kKeep = 0.25;        ///< share of the full-size dataset's rows.
constexpr std::size_t kLanes = 3;     ///< runtime lanes for the batch job.
constexpr std::size_t kSetupReps = 9;
/// The benches' default seed, for the detector and the experience split:
/// both are configuration of the job, not its input.
constexpr std::uint64_t kJobSeed = 42;

/// Synthetic UNSW-NB15 drawn from one fixed traffic model: the full-size
/// dataset of kTrafficSeed, of which `seed` keeps a random kKeep of the
/// rows in stream order.
data::Dataset make_dataset(std::uint64_t seed) {
  const data::Dataset full = data::make_unsw_nb15(kTrafficSeed, 1.0);
  Rng rng(seed);
  std::vector<std::size_t> rows = rng.permutation(full.size());
  rows.resize(static_cast<std::size_t>(kKeep * static_cast<double>(full.size())));
  std::sort(rows.begin(), rows.end());
  return full.take(rows);
}

/// Forwards every call to the detector under test. Times each experience
/// round (from one observe_experience to the next, or to the end of the
/// job) and counts non-finite test scores.
class ObservedDetector final : public core::ContinualDetector {
 public:
  ObservedDetector(core::ContinualDetector& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_.name(); }
  void setup(const core::SetupContext& ctx) override {
    Span s(tracer_, "core.setup");
    inner_.setup(ctx);
  }
  void observe_experience(const Matrix& x_train) override {
    const Clock::time_point t0 = Clock::now();
    end_round(t0);
    round_start_ = t0;
    in_round_ = true;
    {
      Span s(tracer_, "core.observe_experience", ++round_);
      inner_.observe_experience(x_train);
    }
    observe_ms.push_back(ms_between(t0, Clock::now()));
  }
  std::vector<double> score(const Matrix& x_test) override {
    std::vector<double> s;
    {
      Span sp(tracer_, "core.score", round_);
      s = inner_.score(x_test);
    }
    scored += s.size();
    for (double v : s)
      if (!std::isfinite(v)) ++non_finite;
    last_scores = s;
    return s;
  }
  void end_round(Clock::time_point t) {
    if (in_round_) round_ms.push_back(ms_between(round_start_, t));
    in_round_ = false;
  }

  std::vector<double> observe_ms;
  std::vector<double> round_ms;
  std::vector<double> last_scores;
  std::uint64_t scored = 0;
  std::uint64_t non_finite = 0;

 private:
  core::ContinualDetector& inner_;
  Tracer& tracer_;
  Clock::time_point round_start_{};
  bool in_round_ = false;
  std::uint64_t round_ = 0;
};

bool same_matrix(const eval::ClResultMatrix& a, const eval::ClResultMatrix& b) {
  if (a.m() != b.m()) return false;
  for (std::size_t i = 0; i < a.m(); ++i)
    for (std::size_t j = 0; j < a.m(); ++j)
      if (a.get(i, j) != b.get(i, j)) return false;
  return true;
}

}  // namespace

Outcome run_protocol(const RunArgs& args, Tracer& tracer) {
  runtime::set_threads(kLanes);
  const std::string csv = args.workdir + "/protocol-unsw-nb15.csv";
  data::save_csv(make_dataset(args.seed), csv);
  fsync_file(csv);
  const core::DetectorConfig dcfg = bench::paper_detector_config(kJobSeed);
  const core::RunConfig rc{.seed = kJobSeed};

  // Set-up of the job, as `cnd run` does it: read the capture file and
  // split it into experiences.
  std::vector<double> setup_s;
  data::Dataset ds;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    ds = data::load_csv(csv, "UNSW-NB15");
    const data::ExperienceSet es = bench::make_experience_set(ds, kJobSeed);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  Outcome out;
  std::vector<double> job_s, round_ms, observe_ms;
  std::vector<core::RunResult> runs;
  double flows = 0.0;
  std::unique_ptr<core::ContinualDetector> det;
  data::ExperienceSet es;
  std::vector<double> last_scores;
  const Clock::time_point t_start = Clock::now();
  while (job_s.empty() || ms_between(t_start, Clock::now()) < args.seconds * 1000.0) {
    const Clock::time_point t0 = Clock::now();
    {
      Span s(tracer, "data.prepare_experiences", job_s.size());
      es = bench::make_experience_set(ds, kJobSeed);
    }
    det = core::make_detector("CND-IDS", dcfg);
    ObservedDetector observed(*det, tracer);
    {
      Span s(tracer, "core.run_protocol", job_s.size());
      runs.push_back(core::run_protocol(observed, es, rc));
    }
    const Clock::time_point t1 = Clock::now();
    observed.end_round(t1);
    job_s.push_back(ms_between(t0, t1) / 1000.0);
    round_ms.insert(round_ms.end(), observed.round_ms.begin(), observed.round_ms.end());
    observe_ms.insert(observe_ms.end(), observed.observe_ms.begin(), observed.observe_ms.end());
    out.attempted += observed.scored;
    out.failed += observed.non_finite;
    last_scores = std::move(observed.last_scores);
    for (const auto& e : es.experiences) flows += static_cast<double>(e.x_train.rows());
    flows += static_cast<double>(observed.scored);
  }
  const Clock::time_point t_end = Clock::now();
  double total_s = 0.0;
  for (double s : job_s) total_s += s;
  for (const core::RunResult& r : runs)
    if (!same_matrix(r.f1, runs.front().f1) || !same_matrix(r.pr_auc, runs.front().pr_auc))
      out.check_errors.push_back("protocol: R matrices differ between repetitions");

  const core::RunResult& res = runs.front();
  out.e2e("flows_per_sec", flows / total_s, "1/s");
  out.e2e("verdict_ms_p90", quantile(round_ms, 0.9), "ms");
  out.e2e("setup_s", median(setup_s), "s");
  out.e2e("verdict_f1", res.avg(), "ratio");

  out.note("protocol_s", median(job_s));
  out.note("verdict_ms_p50", quantile(round_ms, 0.5));
  out.note("observe_ms", median(observe_ms));
  out.note("jobs", static_cast<double>(job_s.size()));
  out.note("rounds", static_cast<double>(round_ms.size()));
  out.note("avg_f1", res.avg());
  out.note("fwd_trans", res.fwd());
  out.note("bwd_trans", res.bwd());
  out.note("avg_pr_auc", res.pr_auc.avg_current());
  out.note("experiences", static_cast<double>(es.size()));
  out.note("dataset_rows", static_cast<double>(ds.x.rows()));
  out.note("kept_share", kKeep);
  out.note("lanes", static_cast<double>(runtime::threads()));
  out.note("setup_reps", static_cast<double>(kSetupReps));

  if (!tracer.on()) return out;

  out.layer("data.prepare_ms", tracer.mean_self_ms("data.prepare_experiences", t_start, t_end),
            "ms");
  out.layer("core.observe_ms", tracer.mean_self_ms("core.observe_experience", t_start, t_end),
            "ms");
  out.layer("runtime.lanes", static_cast<double>(runtime::threads()), "count");
  summarize_trace(tracer, t_start, t_end, out);

  const data::Experience& last = es.experiences.back();
  std::vector<std::size_t> rows(std::min<std::size_t>(256, last.x_test.rows()));
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  auto& cnd = dynamic_cast<core::CndIds&>(*det);
  probe_cnd_layers(cnd, dcfg.cnd, last.x_test.take_rows(rows), es.n_clean, last.x_train,
                   kJobSeed, out);
  probe_eval(last_scores, last.y_test, cnd.score(es.n_clean), out);
  read_program_timers(out);
  return out;
}

}  // namespace cnd::perfbench
