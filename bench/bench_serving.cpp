// Serving soak bench: the full production path end to end.
//
// Synthesizes a flow stream (normal traffic with embedded attack waves and
// slow covariate drift), packs it into a binary FlowRecordFile, then replays
// the memory-mapped file through the sharded ScoringService — admission
// queue, N shard replicas, optional hot-swap adaptation rounds — and reports
// sustained flows/sec plus p50/p99 per-batch score latency estimated from
// the serve.score_ms histogram into BENCH_serving.json.
//
// Determinism: a batch's scores depend only on its admission index (the
// artifact version is fixed at admission), so --dump-scores output is
// byte-identical at any --shards value. Rejected submissions are retried
// until admitted — backpressure shows up in serve.rejected_total and the
// retry count, never in the scored set. check_determinism.sh replays this
// bench at 1 and 4 shards and byte-compares the dumps.
//
// Flags (on top of the common harness set):
//   --flows=N        total flows to stream (default 1,000,000)
//   --batch=N        rows per admitted batch (default 256)
//   --shards=N       shard replicas (default 2)
//   --queue=N        admission-queue capacity in batches (default 8)
//   --adapt-every=N  adaptation interval in admitted flows (0 = off)
//   --dump-scores=P  write per-flow "score verdict" lines to P (%.17g)
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "data/flow_generator.hpp"
#include "obs/scoped_timer.hpp"
#include "serve/flow_record.hpp"
#include "serve/service.hpp"

namespace {

using namespace cnd;

struct ServingOptions {
  std::size_t flows = 1000000;
  std::size_t batch = 256;
  std::size_t shards = 2;
  std::size_t queue = 8;
  std::size_t adapt_every = 0;
  std::string dump_scores;
};

ServingOptions parse_serving(int argc, char** argv) {
  ServingOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--flows=", 0) == 0)
      o.flows = static_cast<std::size_t>(bench::detail::parse_uint_flag(a, 8));
    if (a.rfind("--batch=", 0) == 0)
      o.batch = static_cast<std::size_t>(bench::detail::parse_uint_flag(a, 8));
    if (a.rfind("--shards=", 0) == 0)
      o.shards = static_cast<std::size_t>(bench::detail::parse_uint_flag(a, 9));
    if (a.rfind("--queue=", 0) == 0)
      o.queue = static_cast<std::size_t>(bench::detail::parse_uint_flag(a, 8));
    if (a.rfind("--adapt-every=", 0) == 0)
      o.adapt_every = static_cast<std::size_t>(bench::detail::parse_uint_flag(a, 14));
    if (a.rfind("--dump-scores=", 0) == 0) o.dump_scores = a.substr(14);
  }
  if (o.flows == 0 || o.batch == 0 || o.shards == 0 || o.queue == 0)
    throw std::invalid_argument("bench_serving: flags must be >= 1");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const ServingOptions so = parse_serving(argc, argv);
  // Latency histograms need observability on even without --metrics-out;
  // metrics are a write-only side channel, the scored set is unaffected.
  obs::set_enabled(true);

  const std::size_t d = 32;
  const std::size_t clean_rows = 2048;

  std::printf("=== Serving soak: %zu flows, batch %zu, %zu shard(s), queue %zu ===\n\n",
              so.flows, so.batch, so.shards, so.queue);

  // ---- Synthesize the stream and pack it into a flow-record file ----------
  Rng rng(opt.seed);
  data::FlowGenerator gen(d, 8, 0.6, rng);
  const std::size_t normal = gen.add_profile("normal", 0.0, 1.0, 0.0,
                                             /*drift_mag=*/0.3, 0.0, 0.0,
                                             /*cov_drift=*/0.2, rng);
  const std::size_t attack = gen.add_profile("attack", 6.0, 1.2, 6.0,
                                             /*drift_mag=*/0.3, 0.5, 0.3,
                                             /*cov_drift=*/0.2, rng);

  const Matrix n_clean = gen.sample(normal, clean_rows, 0.0, rng);

  const std::string record_path = "serving_flows.bin";
  {
    serve::FlowRecordWriter writer(record_path, d);
    const std::size_t chunk = 8192;
    for (std::size_t written = 0; written < so.flows;) {
      const std::size_t n = std::min(chunk, so.flows - written);
      const double phase =
          static_cast<double>(written) / static_cast<double>(so.flows);
      // Attack waves occupy two ~5%-of-stream windows; everything else is
      // (drifting) normal traffic.
      const bool wave = (phase >= 0.30 && phase < 0.35) ||
                        (phase >= 0.70 && phase < 0.75);
      writer.append(gen.sample(wave ? attack : normal, n, phase, rng));
      written += n;
    }
    writer.close();
  }
  serve::FlowRecordFile file(record_path);
  std::printf("  packed %zu flows x %zu features (%s)\n", file.rows(), file.dim(),
              file.mapped() ? "mmap" : "owned buffer");

  // ---- Bootstrap the service ----------------------------------------------
  serve::ServiceConfig cfg;
  cfg.detector = "CND-IDS";
  cfg.detector_cfg.seed = opt.seed;
  cfg.detector_cfg.cnd.seed = opt.seed;
  cfg.detector_cfg.cnd.cfe.hidden_dim = 64;
  cfg.detector_cfg.cnd.cfe.latent_dim = 32;
  cfg.detector_cfg.cnd.cfe.epochs = 4;
  cfg.detector_cfg.cnd.cfe.kmeans_k = 4;
  cfg.shards = so.shards;
  cfg.queue_capacity = so.queue;
  cfg.adapt_interval_flows = so.adapt_every;
  serve::ScoringService svc(cfg);

  obs::Stopwatch boot_timer;
  svc.bootstrap(n_clean);
  std::printf("  bootstrap: %.1f ms, threshold %.6g\n", boot_timer.elapsed_ms(),
              svc.threshold());

  // ---- Replay the file through the queue ----------------------------------
  Matrix batch;
  std::size_t retries = 0;
  obs::Stopwatch soak_timer;
  for (std::size_t lo = 0; lo < file.rows(); lo += so.batch) {
    const std::size_t hi = std::min(lo + so.batch, file.rows());
    file.copy_rows_into(lo, hi, batch);
    // Retry rejected batches: backpressure protects the queue, and the
    // bench's scored set stays the whole stream at any shard count.
    while (!svc.try_submit(batch)) {
      ++retries;
      std::this_thread::yield();
    }
  }
  svc.drain();
  const double soak_ms = soak_timer.elapsed_ms();
  svc.shutdown();

  const double flows_per_sec =
      static_cast<double>(svc.flows_admitted()) / (soak_ms / 1000.0);
  const obs::Histogram& score_ms = obs::metrics().histogram("serve.score_ms");
  const double p50 = score_ms.quantile(0.50);
  const double p99 = score_ms.quantile(0.99);

  std::size_t alarms = 0;
  for (const auto& b : svc.results())
    for (int v : b.verdicts) alarms += static_cast<std::size_t>(v);
  const double alarm_rate =
      static_cast<double>(alarms) / static_cast<double>(svc.flows_admitted());

  std::printf("\n  flows scored       %12llu\n",
              static_cast<unsigned long long>(svc.flows_admitted()));
  std::printf("  sustained          %12.0f flows/sec\n", flows_per_sec);
  std::printf("  score latency      p50 <= %.3g ms, p99 <= %.3g ms per batch\n",
              p50, p99);
  std::printf("  backpressure       %12llu rejected (%zu producer retries)\n",
              static_cast<unsigned long long>(svc.rejected()), retries);
  std::printf("  adaptations        %12llu (artifact v%llu, %llu replica swaps)\n",
              static_cast<unsigned long long>(svc.adaptations()),
              static_cast<unsigned long long>(svc.artifact_version()),
              static_cast<unsigned long long>(svc.swaps()));
  std::printf("  alarm rate         %12.4f\n", alarm_rate);

  // ---- Optional per-flow dump (check_determinism.sh serving leg) ----------
  if (!so.dump_scores.empty()) {
    std::FILE* f = std::fopen(so.dump_scores.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_serving: cannot write %s\n",
                   so.dump_scores.c_str());
      return 1;
    }
    for (const auto& b : svc.results())
      for (std::size_t i = 0; i < b.scores.size(); ++i)
        std::fprintf(f, "%.17g %d\n", b.scores[i], b.verdicts[i]);
    std::fclose(f);
    std::printf("  wrote %s\n", so.dump_scores.c_str());
  }

  // ---- BENCH_serving.json --------------------------------------------------
  std::FILE* jf = std::fopen("BENCH_serving.json", "w");
  if (jf == nullptr) {
    std::fprintf(stderr, "bench_serving: cannot write BENCH_serving.json\n");
    return 1;
  }
  std::fprintf(jf,
               "{\n"
               "  \"record\": \"Sharded serving soak (docs/SERVING.md): "
               "FlowRecordFile -> admission queue -> %zu shard replica(s); "
               "latency quantiles are upper bucket edges of serve.score_ms\",\n"
               "  \"flows\": %llu,\n"
               "  \"features\": %zu,\n"
               "  \"batch_rows\": %zu,\n"
               "  \"shards\": %zu,\n"
               "  \"queue_capacity\": %zu,\n"
               "  \"adapt_interval_flows\": %zu,\n"
               "  \"flows_per_sec\": %.1f,\n"
               "  \"batch_p50_ms\": %.6g,\n"
               "  \"batch_p99_ms\": %.6g,\n"
               "  \"rejected\": %llu,\n"
               "  \"producer_retries\": %zu,\n"
               "  \"adaptations\": %llu,\n"
               "  \"replica_swaps\": %llu,\n"
               "  \"threshold\": %.17g,\n"
               "  \"alarm_rate\": %.6f\n"
               "}\n",
               so.shards, static_cast<unsigned long long>(svc.flows_admitted()),
               d, so.batch, so.shards, so.queue, so.adapt_every, flows_per_sec,
               p50, p99, static_cast<unsigned long long>(svc.rejected()),
               retries, static_cast<unsigned long long>(svc.adaptations()),
               static_cast<unsigned long long>(svc.swaps()), svc.threshold(),
               alarm_rate);
  std::fclose(jf);
  std::printf("\nWrote BENCH_serving.json\n");
  return 0;
}
