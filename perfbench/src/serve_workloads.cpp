// serve_steady and serve_adapt: one client replays a flow-record file
// through ScoringService in closed-loop windows. A window is a fixed number
// of batches, each copied out of the file and submitted; it ends when
// drain() returns, and its latency runs from its first try_submit to that
// return. The client never retries or spins: a rejected batch is a failure.
#include <algorithm>
#include <memory>

#include "checks.hpp"
#include "eval/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/artifact.hpp"
#include "serve/flow_record.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace cnd::perfbench {

namespace {

constexpr std::size_t kBootstrapLanes = 3;
/// `cnd serve`'s default --seed: the detector is part of the program's
/// configuration, not of the workload's input.
constexpr std::uint64_t kDetectorSeed = 7;

struct ServeParams {
  const char* name;
  core::CndIdsConfig model;
  std::size_t clean_rows;
  std::size_t file_flows;      ///< rows in the flow file, replayed cyclically.
  std::size_t batch_rows;
  std::size_t window_batches;  ///< batches per window, all shards together.
  std::size_t shards;
  std::size_t adapt_interval;  ///< 0 = adaptation off.
  std::size_t setup_reps;
};

/// The model `cnd serve` deploys by default: the paper architecture
/// (256/256 MLP, elbow K, PCA at 95%) with 8 epochs.
ServeParams steady_params() {
  core::CndIdsConfig m;
  m.cfe.epochs = 8;
  return {.name = "serve_steady", .model = m, .clean_rows = 2048, .file_flows = 131072,
          .batch_rows = 256, .window_batches = 8, .shards = 2, .adapt_interval = 0,
          .setup_reps = 3};
}

/// bench_serving's soak detector, adapting once per window: every window
/// admits exactly one interval of flows, so each runs one training round.
/// The L_CL encoder snapshots are capped, as CfeConfig advises for long
/// streams: uncapped, every round trains against one more past encoder, so
/// rounds slow down for as long as the service runs and a timed phase
/// would measure how many rounds it fitted, not how fast one round is.
ServeParams adapt_params() {
  core::CndIdsConfig m;
  m.cfe.hidden_dim = 64;
  m.cfe.latent_dim = 32;
  m.cfe.epochs = 4;
  m.cfe.kmeans_k = 4;
  m.cfe.max_snapshots = 4;
  return {.name = "serve_adapt", .model = m, .clean_rows = 2048, .file_flows = 131072,
          .batch_rows = 256, .window_batches = 32, .shards = 2, .adapt_interval = 8192,
          .setup_reps = 3};
}

/// The client side of the closed loop.
class Client {
 public:
  Client(serve::ScoringService& svc, const serve::FlowRecordFile& file,
         const ServeParams& p, Tracer& tracer)
      : svc_(svc), file_(file), p_(p), tracer_(tracer) {}

  /// One window; returns its latency in ms.
  double window(std::uint64_t id) {
    Clock::time_point start{};
    for (std::size_t b = 0; b < p_.window_batches; ++b) {
      {
        Span s(tracer_, "serve.copy_rows", id);
        file_.copy_rows_into(cursor_, cursor_ + p_.batch_rows, batch_);
      }
      const std::uint64_t rounds = svc_.adaptations();
      const Clock::time_point t0 = Clock::now();
      if (b == 0) start = t0;
      bool admitted = false;
      {
        Span s(tracer_, "serve.try_submit", id);
        admitted = svc_.try_submit(batch_);
        if (svc_.adaptations() != rounds) {
          stalls_ms.push_back(ms_between(t0, Clock::now()));
          s.rename("serve.adapt_round");
        }
      }
      attempted += p_.batch_rows;
      if (!admitted) rejected_rows += p_.batch_rows;
      cursor_ = (cursor_ + p_.batch_rows) % file_.rows();
    }
    {
      Span s(tracer_, "serve.drain", id);
      svc_.drain();
    }
    return ms_between(start, Clock::now());
  }

  std::uint64_t attempted = 0;
  std::uint64_t rejected_rows = 0;
  std::vector<double> stalls_ms;  ///< try_submit calls that ran a round.

 private:
  serve::ScoringService& svc_;
  const serve::FlowRecordFile& file_;
  const ServeParams& p_;
  Tracer& tracer_;
  Matrix batch_;
  std::size_t cursor_ = 0;
};

Outcome run_serve(const ServeParams& p, const RunArgs& args, Tracer& tracer) {
  const std::string path = args.workdir + "/" + p.name + "-flows.bin";
  const FlowStream stream = make_flow_stream(args.seed, p.clean_rows, 0, p.file_flows, false, path);

  serve::ServiceConfig cfg;
  cfg.detector = "CND-IDS";
  cfg.detector_cfg.seed = kDetectorSeed;
  cfg.detector_cfg.cnd = p.model;
  cfg.detector_cfg.cnd.seed = kDetectorSeed;
  cfg.shards = p.shards;
  cfg.queue_capacity = p.window_batches;  // holds a whole window: no rejections.
  cfg.adapt_interval_flows = p.adapt_interval;

  // Set-up, repeated; the last service is the one measured. Set-up is the
  // bootstrap, opening the flow file, and warm-up windows until every shard
  // has restored its replica.
  std::vector<double> setup_s, bootstrap_ms;
  std::unique_ptr<serve::ScoringService> svc;
  std::unique_ptr<serve::FlowRecordFile> file;
  std::unique_ptr<Client> client;
  std::uint64_t window_id = 0;
  for (std::size_t rep = 0; rep < p.setup_reps; ++rep) {
    client.reset();
    svc.reset();
    file.reset();
    const Clock::time_point t0 = Clock::now();
    svc = std::make_unique<serve::ScoringService>(cfg);
    {
      // Training may use every lane the load allows; scoring gets one lane
      // per shard. The shard threads are idle until the first submit, so the
      // lane count can change between the two.
      Span s(tracer, "serve.bootstrap");
      runtime::set_threads(kBootstrapLanes);
      const Clock::time_point b0 = Clock::now();
      svc->bootstrap(stream.clean);
      bootstrap_ms.push_back(ms_between(b0, Clock::now()));
      runtime::set_threads(1);
    }
    file = std::make_unique<serve::FlowRecordFile>(path);
    client = std::make_unique<Client>(*svc, *file, p, tracer);
    do {
      client->window(window_id++);
    } while (svc->swaps() < p.shards);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  const std::size_t warm_stalls = client->stalls_ms.size();

  // Timed phase.
  std::vector<double> window_ms;
  const std::uint64_t flows0 = svc->flows_admitted();
  const std::uint64_t swaps0 = svc->swaps();
  const std::size_t batches0 = svc->results().size();
  const Clock::time_point t_start = Clock::now();
  const Clock::time_point deadline = after(t_start, args.seconds);
  while (Clock::now() < deadline) window_ms.push_back(client->window(window_id++));
  const Clock::time_point t_end = Clock::now();
  const double wall_s = ms_between(t_start, t_end) / 1000.0;
  const std::uint64_t flows = svc->flows_admitted() - flows0;
  const std::size_t batches = svc->results().size() - batches0;
  const std::uint64_t swaps = svc->swaps() - swaps0;
  std::vector<double> stalls(client->stalls_ms.begin() +
                                 static_cast<std::ptrdiff_t>(warm_stalls),
                             client->stalls_ms.end());
  // The verdict F1 covers the first full pass over the file, the same flows
  // on every run; finish that pass outside the timed phase if needed.
  while (svc->flows_admitted() < p.file_flows) client->window(window_id++);

  Outcome out;
  // ---- Output checks ----
  const auto& results = svc->results();
  out.attempted = client->attempted;
  out.failed = client->rejected_rows;
  for (const serve::BatchResult& b : results) out.failed += verdict_failures(b);
  const std::vector<std::size_t> sample = sample_batches(results, 64);
  const std::vector<ReferenceBatch> refs =
      reference_scores(results, sample, *file, cfg.detector_cfg);
  out.failed += replica_failures(results, refs);

  std::vector<int> first_pass;
  std::vector<double> first_scores;
  for (const serve::BatchResult& b : results) {
    if (b.first_flow >= p.file_flows) break;
    first_pass.insert(first_pass.end(), b.verdicts.begin(), b.verdicts.end());
    first_scores.insert(first_scores.end(), b.scores.begin(), b.scores.end());
  }
  first_pass.resize(p.file_flows);
  first_scores.resize(p.file_flows);

  // ---- End-to-end metrics ----
  out.e2e("flows_per_sec", static_cast<double>(flows) / wall_s, "1/s");
  out.e2e("verdict_ms_p90", quantile(window_ms, 0.9), "ms");
  out.e2e("setup_s", median(setup_s), "s");
  out.e2e("verdict_f1", eval::f1_score(first_pass, stream.labels), "ratio");

  if (p.adapt_interval > 0) out.note("adapt_stall_ms", median(stalls));
  out.note("verdict_ms_p50", quantile(window_ms, 0.5));
  out.note("windows", static_cast<double>(window_ms.size()));
  out.note("window_flows", static_cast<double>(p.window_batches * p.batch_rows));
  out.note("adapt_rounds_timed", static_cast<double>(stalls.size()));
  out.note("setup_reps", static_cast<double>(p.setup_reps));
  out.note("batches_checked", static_cast<double>(refs.size()));
  out.note("threshold", svc->threshold());
  out.note("artifact_version", static_cast<double>(svc->artifact_version()));
  out.note("shards", static_cast<double>(p.shards));
  out.note("lanes", static_cast<double>(runtime::threads()));
  out.note("bootstrap_lanes", static_cast<double>(kBootstrapLanes));
  out.note("batch_rows", static_cast<double>(p.batch_rows));
  out.note("file_flows", static_cast<double>(p.file_flows));
  out.note("clean_rows", static_cast<double>(p.clean_rows));
  out.note("adapt_interval_flows", static_cast<double>(p.adapt_interval));
  out.note("hidden_dim", static_cast<double>(p.model.cfe.hidden_dim));
  out.note("latent_dim", static_cast<double>(p.model.cfe.latent_dim));
  out.note("epochs", static_cast<double>(p.model.cfe.epochs));
  out.note("max_snapshots", static_cast<double>(p.model.cfe.max_snapshots));

  if (!tracer.on()) return out;

  // ---- Per-layer metrics (traced run) ----
  auto mean_self = [&](const char* name) { return tracer.mean_self_ms(name, t_start, t_end); };
  out.layer("serve.copy_rows_ms", mean_self("serve.copy_rows"), "ms");
  out.layer("serve.submit_ms", mean_self("serve.try_submit"), "ms");
  out.layer("serve.adapt_round_ms", mean_self("serve.adapt_round"), "ms");
  out.layer("serve.drain_wait_ms", mean_self("serve.drain"), "ms");
  out.layer("serve.rejected", static_cast<double>(svc->rejected()), "count");
  out.layer("serve.swaps", static_cast<double>(swaps), "count");
  out.layer("serve.bootstrap_ms", median(bootstrap_ms), "ms");
  const serve::ServingArtifact& artifact = *results.back().artifact;
  out.layer("io.artifact_bytes", static_cast<double>(artifact.model_bytes.size()), "B");
  out.layer("serve.restore_replica_ms", time_ms([&] {
              serve::restore_replica(artifact, cfg.detector_cfg);
            }),
            "ms");
  out.layer("runtime.lanes", static_cast<double>(runtime::threads()), "count");
  summarize_trace(tracer, t_start, t_end, out);

  auto replica = serve::restore_replica(artifact, cfg.detector_cfg);
  Matrix batch;
  file->copy_rows_into(0, p.batch_rows, batch);
  // The round's training stream is one window of flows; the bootstrap's is
  // the clean window.
  Matrix train_stream;
  file->copy_rows_into(0, p.adapt_interval > 0 ? p.adapt_interval : p.batch_rows, train_stream);
  probe_cnd_layers(dynamic_cast<core::CndIds&>(*replica), cfg.detector_cfg.cnd, batch,
                   stream.clean, p.adapt_interval > 0 ? train_stream : stream.clean,
                   kDetectorSeed, out);
  out.layer("serve.shard_busy_frac",
            static_cast<double>(batches) * out.per_layer["core.score_batch_ms"].value /
                (static_cast<double>(p.shards) * wall_s * 1000.0),
            "ratio");
  probe_eval(first_scores, stream.labels, replica->score(stream.clean), out);
  read_program_timers(out);
  return out;
}

}  // namespace

Outcome run_serve_steady(const RunArgs& args, Tracer& tracer) {
  return run_serve(steady_params(), args, tracer);
}

Outcome run_serve_adapt(const RunArgs& args, Tracer& tracer) {
  return run_serve(adapt_params(), args, tracer);
}

}  // namespace cnd::perfbench
