// Self-check of the serving output checks: on a small service, the checks
// find no failure; after one byte of one reference score is corrupted they
// count exactly that batch's flows as failed; a flipped verdict counts one
// flow.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   ctest --test-dir .bench_build/perfbench
#include <cstdio>

#include "checks.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect_eq(const char* what, std::uint64_t got, std::uint64_t want) {
  if (got == want) return;
  std::fprintf(stderr, "selftest: %s: got %llu, want %llu\n", what,
               static_cast<unsigned long long>(got), static_cast<unsigned long long>(want));
  ++failures;
}

}  // namespace

int main() {
  using namespace cnd;
  using namespace cnd::perfbench;
  constexpr std::size_t kRows = 64;
  constexpr std::size_t kBatches = 6;
  const std::string path = "selftest-flows.bin";
  const FlowStream stream = make_flow_stream(7, 256, 0, kRows * kBatches, false, path);
  const serve::FlowRecordFile file(path);

  serve::ServiceConfig cfg;
  cfg.detector_cfg.cnd.cfe.hidden_dim = 16;
  cfg.detector_cfg.cnd.cfe.latent_dim = 8;
  cfg.detector_cfg.cnd.cfe.epochs = 1;
  cfg.detector_cfg.cnd.cfe.kmeans_k = 2;
  cfg.shards = 2;
  cfg.queue_capacity = kBatches;
  cfg.adapt_interval_flows = 3 * kRows;  // one hot swap half-way through.
  serve::ScoringService svc(cfg);
  svc.bootstrap(stream.clean);
  Matrix batch;
  for (std::size_t b = 0; b < kBatches; ++b) {
    file.copy_rows_into(b * kRows, (b + 1) * kRows, batch);
    if (!svc.try_submit(batch)) {
      std::fprintf(stderr, "selftest: batch %zu rejected\n", b);
      return 1;
    }
  }
  svc.drain();

  const auto& results = svc.results();
  const std::vector<std::size_t> sample = sample_batches(results, kBatches);
  expect_eq("sampled batches", sample.size(), kBatches);
  std::vector<ReferenceBatch> refs = reference_scores(results, sample, file, cfg.detector_cfg);
  expect_eq("failures on clean output", replica_failures(results, refs), 0);

  // Corrupt one byte of one reference score of batch 4.
  auto* bytes = reinterpret_cast<unsigned char*>(&refs[4].scores[5]);
  bytes[0] ^= 0x01;
  expect_eq("failures after corrupting one reference byte", replica_failures(results, refs),
            kRows);

  std::uint64_t verdict_bad = 0;
  for (const serve::BatchResult& b : results) verdict_bad += verdict_failures(b);
  expect_eq("verdict failures on clean output", verdict_bad, 0);
  serve::BatchResult flipped = results[2];
  flipped.verdicts[7] ^= 1;
  expect_eq("verdict failures after flipping one verdict", verdict_failures(flipped), 1);

  std::remove(path.c_str());
  if (failures == 0) std::printf("selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
