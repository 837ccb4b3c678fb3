// IVF approximate-neighbor bench (docs/ANN.md): sweeps nprobe over a seeded
// Gaussian-cluster reference set and records the recall-vs-speedup curve of
// the IVF index against exact brute-force kNN in BENCH_ann.json. The
// acceptance bar this artifact documents: >= 3x speedup over brute force at
// recall@10 >= 0.95 on the default shape.
//
// The binary doubles as the determinism probe for the ANN leg of
// tools/check_determinism.sh: `--dump-ann=<path>` skips the timing sweep,
// verifies IN PROCESS that exact-mode provider results are byte-identical to
// the brute-force path (linalg::knn and the pre-provider LOF / kNN-detector
// scoring), then writes exact scores and ANN-mode results to a CSV whose
// bytes the script diffs across thread counts. Any in-process identity
// mismatch exits nonzero, so the script cannot miss a broken exact contract.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "linalg/distance.hpp"
#include "linalg/ivf_index.hpp"
#include "ml/knn_detector.hpp"
#include "ml/lof.hpp"
#include "obs/scoped_timer.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace cnd;

constexpr std::size_t kK = 10;

// Seeded mixture of well-separated Gaussian clusters — the shape IVF is
// built for, and roughly the latent geometry the CND-IDS pseudo-label
// clustering produces.
Matrix gaussian_clusters(std::size_t rows, std::size_t dim,
                         std::size_t n_clusters, std::uint64_t seed) {
  Rng rng(seed);
  Matrix centers(n_clusters, dim);
  for (std::size_t c = 0; c < n_clusters; ++c)
    for (auto& v : centers.row(c)) v = rng.uniform(-10.0, 10.0);
  Matrix x(rows, dim);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto c = static_cast<std::size_t>(
        rng.randint(0, static_cast<std::int64_t>(n_clusters) - 1));
    auto row = x.row(i);
    auto cen = centers.row(c);
    for (std::size_t p = 0; p < dim; ++p) row[p] = cen[p] + rng.normal();
  }
  return x;
}

double recall_vs(const linalg::Knn& exact, const linalg::Knn& approx) {
  std::size_t hit = 0, total = 0;
  for (std::size_t i = 0; i < exact.indices.size(); ++i) {
    for (std::size_t t : exact.indices[i]) {
      ++total;
      for (std::size_t a : approx.indices[i])
        if (a == t) {
          ++hit;
          break;
        }
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(hit) / static_cast<double>(total);
}

bool same_knn(const linalg::Knn& a, const linalg::Knn& b) {
  if (a.indices.size() != b.indices.size()) return false;
  for (std::size_t i = 0; i < a.indices.size(); ++i) {
    if (a.indices[i] != b.indices[i]) return false;
    if (a.distances[i].size() != b.distances[i].size()) return false;
    if (std::memcmp(a.distances[i].data(), b.distances[i].data(),
                    a.distances[i].size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

bool same_scores(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The pre-provider kNN-detector scoring path, written out by hand: mean of
// the k nearest reference distances via a direct linalg::knn call. The
// exact-mode detector must reproduce these bytes.
std::vector<double> knn_detector_pre_pr(const Matrix& x, const Matrix& ref,
                                        std::size_t k) {
  const linalg::Knn nn = linalg::knn(x, ref, k, /*exclude_self=*/false);
  std::vector<double> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    double s = 0.0;
    for (double d : nn.distances[i]) s += d;
    out[i] = s / static_cast<double>(nn.distances[i].size());
  }
  return out;
}

// The pre-provider LOF scoring path (fit + score), written out by hand
// against direct linalg::knn calls — the exact algorithm ml::Lof ran before
// the NeighborProvider seam existed.
std::vector<double> lof_pre_pr(const Matrix& ref, const Matrix& x,
                               std::size_t k) {
  const linalg::Knn fitnn = linalg::knn(ref, ref, k, /*exclude_self=*/true);
  std::vector<double> kdist(ref.rows()), lrd(ref.rows());
  for (std::size_t i = 0; i < ref.rows(); ++i)
    kdist[i] = fitnn.distances[i].back();
  auto lrd_of = [&](std::span<const double> dists,
                    const std::vector<std::size_t>& idx) {
    double reach = 0.0;
    for (std::size_t j = 0; j < idx.size(); ++j)
      reach += std::max(dists[j], kdist[idx[j]]);
    return 1.0 / std::max(reach / static_cast<double>(idx.size()), 1e-12);
  };
  for (std::size_t i = 0; i < ref.rows(); ++i)
    lrd[i] = lrd_of(fitnn.distances[i], fitnn.indices[i]);
  const linalg::Knn nn = linalg::knn(x, ref, k, /*exclude_self=*/false);
  std::vector<double> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double lrd_q = lrd_of(nn.distances[i], nn.indices[i]);
    double neigh = 0.0;
    for (std::size_t j : nn.indices[i]) neigh += lrd[j];
    neigh /= static_cast<double>(nn.indices[i].size());
    out[i] = neigh / std::max(lrd_q, 1e-12);
  }
  return out;
}

// ---- --dump-ann: exact-identity checks + byte-diffable CSV -----------------

int dump_ann(const std::string& path, std::uint64_t seed) {
  const Matrix ref = gaussian_clusters(3000, 16, 24, seed);
  const Matrix query = gaussian_clusters(256, 16, 24, seed + 1);

  // Exact contract, checked in process: the provider's exact mode must be
  // bit-identical to the brute-force kernel and to the pre-provider
  // detector scoring paths.
  linalg::NeighborProvider exact;
  exact.bind(ref);
  if (!same_knn(exact.knn(query, kK, false),
                linalg::knn(query, ref, kK, false))) {
    std::fprintf(stderr, "dump-ann: provider exact mode != linalg::knn\n");
    return 1;
  }
  ml::KnnDetector knn_det({.k = kK});
  knn_det.fit(ref);
  if (!same_scores(knn_det.score(query), knn_detector_pre_pr(query, ref, kK))) {
    std::fprintf(stderr,
                 "dump-ann: exact kNN-detector scores != pre-provider path\n");
    return 1;
  }
  ml::Lof lof({.k = 20});
  lof.fit(ref);
  if (!same_scores(lof.score(query), lof_pre_pr(ref, query, 20))) {
    std::fprintf(stderr, "dump-ann: exact LOF scores != pre-provider path\n");
    return 1;
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "dump-ann: cannot open '%s'\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "case,index,value\n");
  std::size_t line = 0;
  auto dump_scores = [&](const char* name, const std::vector<double>& v) {
    for (double s : v) std::fprintf(f, "%s,%zu,%.17g\n", name, line++, s);
  };
  // Exact-mode detector scores: must match the seed tree byte-for-byte.
  dump_scores("exact_knn_scores", knn_det.score(query));
  dump_scores("exact_lof_scores", lof.score(query));

  // ANN-mode results: approximate vs brute force, but byte-identical across
  // thread counts (and everything below rides on that determinism).
  const linalg::AnnConfig acfg{.nprobe = 3, .clusters = 32};
  linalg::NeighborProvider ann;
  ann.bind(ref, acfg);
  const linalg::Knn nn = ann.knn(query, kK, false);
  for (std::size_t i = 0; i < nn.indices.size(); ++i)
    for (std::size_t j = 0; j < kK; ++j) {
      std::fprintf(f, "ann_knn,%zu,%zu\n", line++, nn.indices[i][j]);
      std::fprintf(f, "ann_knn,%zu,%.17g\n", line++, nn.distances[i][j]);
    }
  ml::KnnDetector ann_det({.k = kK, .ann = acfg});
  ann_det.fit(ref);
  dump_scores("ann_knn_scores", ann_det.score(query));
  ml::Lof ann_lof({.k = 20, .ann = {.nprobe = 6, .clusters = 32}});
  ann_lof.fit(ref);
  dump_scores("ann_lof_scores", ann_lof.score(query));
  std::fclose(f);
  std::printf("dump-ann: exact identity verified; wrote %s\n", path.c_str());
  return 0;
}

// ---- Timing sweep → BENCH_ann.json -----------------------------------------

template <typename F>
double best_ms(F&& fn, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    obs::Stopwatch t;
    fn();
    const double ms = t.elapsed_ms();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

int run_sweep(const bench::BenchOptions& o) {
  const auto n = static_cast<std::size_t>(20000 * o.size_scale * 2.0);
  const auto q = static_cast<std::size_t>(2000 * o.size_scale * 2.0);
  const std::size_t dim = 32;
  const std::size_t n_clusters = 32;  // data modes, not index clusters
  std::printf("bench_ann: ref=%zu query=%zu dim=%zu k=%zu\n", n, q, dim, kK);

  const Matrix ref = gaussian_clusters(n, dim, n_clusters, o.seed);
  const Matrix query = gaussian_clusters(q, dim, n_clusters, o.seed + 1);

  linalg::Knn exact;
  const double brute_ms =
      best_ms([&] { exact = linalg::knn(query, ref, kK, false); }, 3);
  std::printf("  brute force: %.2f ms\n", brute_ms);

  std::FILE* f = std::fopen("BENCH_ann.json", "w");
  if (!f) {
    std::fprintf(stderr, "bench_ann: cannot write BENCH_ann.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"bench_ann\",\n  \"ref_rows\": %zu,\n"
               "  \"query_rows\": %zu,\n  \"dim\": %zu,\n  \"k\": %zu,\n"
               "  \"seed\": %llu,\n  \"brute_ms\": %.3f,\n  \"sweep\": [\n",
               n, q, dim, kK, static_cast<unsigned long long>(o.seed),
               brute_ms);

  linalg::NeighborProvider prov;
  bool met_bar = false;
  const std::size_t probes[] = {1, 2, 4, 8, 16, 32};
  for (std::size_t pi = 0; pi < std::size(probes); ++pi) {
    const std::size_t nprobe = probes[pi];
    obs::Stopwatch bt;
    prov.bind(ref, {.nprobe = nprobe});
    const double build_ms = bt.elapsed_ms();
    linalg::Knn approx;
    const double ms = best_ms([&] { approx = prov.knn(query, kK, false); }, 3);
    const double rec = recall_vs(exact, approx);
    const double speedup = ms > 0.0 ? brute_ms / ms : 0.0;
    met_bar = met_bar || (rec >= 0.95 && speedup >= 3.0);
    std::printf("  nprobe=%-3zu  %8.2f ms  recall@%zu=%.4f  speedup=%5.2fx"
                "  (index build %.1f ms, %zu clusters)\n",
                nprobe, ms, kK, rec, speedup, build_ms,
                prov.index()->n_clusters());
    std::fprintf(f,
                 "    {\"nprobe\": %zu, \"ms\": %.3f, \"recall_at_%zu\": %.4f,"
                 " \"speedup\": %.2f, \"build_ms\": %.1f}%s\n",
                 nprobe, ms, kK, rec, speedup, build_ms,
                 pi + 1 < std::size(probes) ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"meets_3x_at_recall95\": %s\n}\n",
               met_bar ? "true" : "false");
  std::fclose(f);
  std::printf("Wrote BENCH_ann.json (3x @ recall>=0.95: %s)\n",
              met_bar ? "yes" : "NO");
  return met_bar ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dump_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--dump-ann=", 0) == 0)
      dump_path = arg.substr(std::string("--dump-ann=").size());
  }
  const cnd::bench::BenchOptions o = cnd::bench::parse_options(argc, argv);
  if (!dump_path.empty()) return dump_ann(dump_path, o.seed);
  return run_sweep(o);
}
