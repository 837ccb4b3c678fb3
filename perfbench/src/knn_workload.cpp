// knn_ann: ml::KnnDetector (k = 10) routed through the IVF index
// (nprobe = 8), fit on a clean reference set of normal flows, scores the
// flows of a drifting stream with attack waves in fixed batches, one batch
// at a time (a closed loop with one client) on one runtime lane. The
// reference set is several times larger than L2, and this is the only
// workload that runs linalg::IvfIndex.
//
// The stream is written in a seeded random order. A drifted flow probes
// larger clusters, so in stream order a batch's cost rises with its drift
// phase (15 to 22 ms per batch with a 40000-flow reference) and the median
// batch sits between two modes; mixed batches all cost the same. The
// detector keeps no state between batches, so the order changes no score.
#include <cstring>
#include <memory>

#include "eval/metrics.hpp"
#include "eval/robust_threshold.hpp"
#include "linalg/distance.hpp"
#include "linalg/ivf_index.hpp"
#include "ml/knn_detector.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/flow_record.hpp"
#include "workloads.hpp"

namespace cnd::perfbench {

namespace {

constexpr std::size_t kReferenceRows = 20000;
constexpr std::size_t kCleanRows = 4096;      ///< held-out window for POT.
constexpr std::size_t kStreamFlows = 32768;
constexpr std::size_t kBatchRows = 256;
constexpr std::size_t kK = 10;
constexpr std::size_t kNprobe = 8;
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kCheckedBatches = 8;
constexpr std::size_t kRecallQueries = 512;

bool same_bytes(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

Outcome run_knn_ann(const RunArgs& args, Tracer& tracer) {
  runtime::set_threads(1);
  const std::string path = args.workdir + "/knn_ann-flows.bin";
  const FlowStream stream =
      make_flow_stream(args.seed, kCleanRows, kReferenceRows, kStreamFlows, true, path);
  const ml::KnnDetectorConfig kcfg{.k = kK, .ann = {.nprobe = kNprobe}};

  // Set-up, repeated: open the stream and fit (bind the reference set and
  // build the IVF index).
  std::vector<double> setup_s, fit_ms;
  std::unique_ptr<serve::FlowRecordFile> file;
  std::unique_ptr<ml::KnnDetector> det;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    det.reset();
    file.reset();
    const Clock::time_point t0 = Clock::now();
    file = std::make_unique<serve::FlowRecordFile>(path);
    det = std::make_unique<ml::KnnDetector>(kcfg);
    {
      Span s(tracer, "ml.knn_fit");
      const Clock::time_point f0 = Clock::now();
      det->fit(stream.reference);
      fit_ms.push_back(ms_between(f0, Clock::now()));
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  const double threshold = eval::pot_threshold(det->score(stream.clean),
                                               {.tail_quantile = 0.9, .target_prob = 0.01});

  // Timed phase: score the stream batch by batch, cycling over the file.
  std::vector<std::vector<double>> batch_scores;
  std::vector<double> batch_ms;
  Matrix batch;
  std::size_t cursor = 0;
  auto score_next = [&](std::uint64_t id) {
    {
      Span s(tracer, "serve.copy_rows", id);
      file->copy_rows_into(cursor, cursor + kBatchRows, batch);
    }
    const Clock::time_point t0 = Clock::now();
    {
      Span s(tracer, "ml.knn_score", id);
      batch_scores.push_back(det->score(batch));
    }
    batch_ms.push_back(ms_between(t0, Clock::now()));
    cursor = (cursor + kBatchRows) % file->rows();
  };
  const Clock::time_point t_start = Clock::now();
  const Clock::time_point deadline = after(t_start, args.seconds);
  while (Clock::now() < deadline) score_next(batch_scores.size());
  const Clock::time_point t_end = Clock::now();
  const double wall_s = ms_between(t_start, t_end) / 1000.0;
  const std::size_t timed_batches = batch_scores.size();
  const std::vector<double> timed_ms = batch_ms;
  // The verdict F1 covers the first full pass over the stream; finish that
  // pass outside the timed phase if needed.
  while (batch_scores.size() * kBatchRows < kStreamFlows) score_next(batch_scores.size());

  Outcome out;
  out.attempted = timed_batches * kBatchRows;

  // ---- Output checks: the IVF re-rank contract ----
  // A second provider over the same reference set and configuration builds
  // the same index (the build is deterministic), so its neighbours are the
  // detector's. Each score must be the mean of those neighbour distances,
  // and each distance must equal, byte for byte, the exact kernel's distance
  // for that (query, reference) pair.
  linalg::NeighborProvider provider;
  provider.bind(stream.reference, kcfg.ann);
  const std::size_t stride = std::max<std::size_t>(1, timed_batches / kCheckedBatches);
  std::size_t checked = 0;
  for (std::size_t b = 0; b < timed_batches; b += stride, ++checked) {
    const std::size_t lo = (b * kBatchRows) % file->rows();
    file->copy_rows_into(lo, lo + kBatchRows, batch);
    const linalg::Knn nn = provider.knn(batch, kK, false);
    for (std::size_t i = 0; i < kBatchRows; ++i) {
      double sum = 0.0;
      for (double dist : nn.distances[i]) sum += dist;
      bool ok = same_bytes(sum / static_cast<double>(kK), batch_scores[b][i]);
      Matrix query(1, batch.cols());
      query.set_row(0, batch.row(i));
      const Matrix exact = linalg::pairwise_dist(query, stream.reference.take_rows(nn.indices[i]));
      for (std::size_t j = 0; j < kK; ++j) ok = ok && same_bytes(exact(0, j), nn.distances[i][j]);
      if (!ok) ++out.failed;
    }
  }

  Matrix sample;
  file->copy_rows_into(0, kRecallQueries, sample);
  const linalg::Knn exact = linalg::knn(sample, stream.reference, kK, false);
  const linalg::Knn approx = provider.knn(sample, kK, false);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < kRecallQueries; ++i)
    for (std::size_t t : exact.indices[i])
      for (std::size_t a : approx.indices[i])
        if (a == t) {
          ++hits;
          break;
        }
  const double recall = static_cast<double>(hits) / static_cast<double>(kRecallQueries * kK);

  std::vector<double> first_scores;
  for (std::size_t b = 0; b * kBatchRows < kStreamFlows; ++b)
    first_scores.insert(first_scores.end(), batch_scores[b].begin(), batch_scores[b].end());
  std::vector<int> verdicts(first_scores.size());
  for (std::size_t i = 0; i < first_scores.size(); ++i)
    verdicts[i] = first_scores[i] > threshold ? 1 : 0;

  // ---- End-to-end metrics ----
  out.e2e("flows_per_sec", static_cast<double>(timed_batches * kBatchRows) / wall_s, "1/s");
  out.e2e("verdict_ms_p90", quantile(timed_ms, 0.9), "ms");
  out.e2e("setup_s", median(setup_s), "s");
  out.e2e("verdict_f1", eval::f1_score(verdicts, stream.labels), "ratio");

  out.note("recall_at_10", recall);
  out.note("verdict_ms_p50", quantile(timed_ms, 0.5));
  out.note("fit_ms", median(fit_ms));
  out.note("batches", static_cast<double>(timed_batches));
  out.note("batches_checked", static_cast<double>(checked));
  out.note("threshold", threshold);
  out.note("reference_rows", static_cast<double>(kReferenceRows));
  out.note("stream_flows", static_cast<double>(kStreamFlows));
  out.note("batch_rows", static_cast<double>(kBatchRows));
  out.note("k", static_cast<double>(kK));
  out.note("nprobe", static_cast<double>(kNprobe));
  out.note("ivf_clusters", static_cast<double>(provider.index()->n_clusters()));
  out.note("lanes", static_cast<double>(runtime::threads()));
  out.note("setup_reps", static_cast<double>(kSetupReps));

  if (!tracer.on()) return out;

  auto mean_self = [&](const char* name) { return tracer.mean_self_ms(name, t_start, t_end); };
  out.layer("serve.copy_rows_ms", mean_self("serve.copy_rows"), "ms");
  out.layer("ml.knn_score_ms", mean_self("ml.knn_score"), "ms");
  out.layer("runtime.lanes", static_cast<double>(runtime::threads()), "count");
  summarize_trace(tracer, t_start, t_end, out);

  file->copy_rows_into(0, kBatchRows, batch);
  out.layer("linalg.ivf_build_ms", time_ms([&] {
              linalg::IvfIndex ix;
              ix.build_from(stream.reference, kcfg.ann);
            }, 0.0, 1),
            "ms");
  out.layer("linalg.ivf_search_ms", time_ms([&] { provider.knn(batch, kK, false); }), "ms");
  out.layer("linalg.exact_knn_ms",
            time_ms([&] { linalg::knn(batch, stream.reference, kK, false); }), "ms");
  // Candidates scanned per query: the members of the nprobe clusters whose
  // centroids are nearest to it.
  const linalg::IvfIndex& ix = *provider.index();
  const Matrix cd = linalg::pairwise_dist(sample, ix.centroids());
  double candidates = 0.0;
  for (std::size_t i = 0; i < sample.rows(); ++i) {
    std::vector<std::pair<double, std::size_t>> order;
    for (std::size_t c = 0; c < ix.n_clusters(); ++c) order.emplace_back(cd(i, c), c);
    std::sort(order.begin(), order.end());
    for (std::size_t p = 0; p < std::min(kNprobe, order.size()); ++p)
      candidates += static_cast<double>(ix.cluster_size(order[p].second));
  }
  out.layer("linalg.ivf_candidates_per_query",
            candidates / static_cast<double>(sample.rows()), "count");
  probe_eval(first_scores, stream.labels, det->score(stream.clean), out);
  return out;
}

}  // namespace cnd::perfbench
