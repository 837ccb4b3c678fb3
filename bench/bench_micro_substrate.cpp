// Micro-benchmarks of the substrate hot paths: dense matmul (all three
// transpose variants), Jacobi eigendecomposition, fused pairwise distances,
// a K-Means Lloyd pass, one autoencoder training epoch, and PCA FRE scoring
// throughput. These bound the cost model for every experiment bench in this
// repository.
//
// Besides benchmarking, the binary doubles as a determinism probe:
// `--dump-kernels=<path>` writes fixed-seed outputs of every blocked kernel
// to a CSV and exits, so tools/check_determinism.sh can diff the bytes
// across thread counts and sanitizer builds.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "linalg/distance.hpp"
#include "linalg/eigen.hpp"
#include "linalg/ivf_index.hpp"
#include "ml/kmeans.hpp"
#include "ml/pca.hpp"
#include "nn/autoencoder.hpp"
#include "nn/losses.hpp"
#include "nn/optimizer.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace cnd;

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (auto& v : m.row(i)) v = rng.normal();
  return m;
}

// 2mnk-flop rate counter shared by the GEMM-shaped benches.
void set_gflops(benchmark::State& state, std::size_t m, std::size_t n,
                std::size_t k) {
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 *
          static_cast<double>(m * n * k),
      benchmark::Counter::kIsRate);
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_matrix(n, n, 1);
  Matrix b = random_matrix(n, n, 2);
  for (auto _ : state) benchmark::DoNotOptimize(matmul(a, b));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n * n * n));
  set_gflops(state, n, n, n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_MatmulBt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_matrix(n, n, 1);
  Matrix b = random_matrix(n, n, 2);
  for (auto _ : state) benchmark::DoNotOptimize(matmul_bt(a, b));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n * n * n));
  set_gflops(state, n, n, n);
}
BENCHMARK(BM_MatmulBt)->Arg(256);

void BM_MatmulAt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_matrix(n, n, 1);
  Matrix b = random_matrix(n, n, 2);
  for (auto _ : state) benchmark::DoNotOptimize(matmul_at(a, b));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n * n * n));
  set_gflops(state, n, n, n);
}
BENCHMARK(BM_MatmulAt)->Arg(256);

void BM_PairwiseDist(benchmark::State& state) {
  Matrix a = random_matrix(2048, 48, 10);
  Matrix b = random_matrix(1024, 48, 11);
  for (auto _ : state) benchmark::DoNotOptimize(linalg::pairwise_dist(a, b));
  state.SetItemsProcessed(state.iterations() * (2048 * 1024));
  set_gflops(state, 2048, 1024, 48);
}
BENCHMARK(BM_PairwiseDist)->Unit(benchmark::kMillisecond);

// Repeated-query kNN, the LOF/kNN-detector scoring shape: the bare
// linalg::knn recomputes the reference row norms on every call, the
// NeighborProvider caches them at bind() time. The pair quantifies what the
// cache is worth per score call (docs/ANN.md).
void BM_KnnBrute(benchmark::State& state) {
  Matrix ref = random_matrix(4096, 32, 20);
  Matrix q = random_matrix(512, 32, 21);
  for (auto _ : state) benchmark::DoNotOptimize(linalg::knn(q, ref, 10, false));
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_KnnBrute)->Unit(benchmark::kMillisecond);

void BM_KnnProviderCachedNorms(benchmark::State& state) {
  linalg::NeighborProvider nn;
  nn.bind(random_matrix(4096, 32, 20));  // exact mode, norms cached once
  Matrix q = random_matrix(512, 32, 21);
  for (auto _ : state) benchmark::DoNotOptimize(nn.knn(q, 10, false));
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_KnnProviderCachedNorms)->Unit(benchmark::kMillisecond);

void BM_KnnIvf(benchmark::State& state) {
  const auto nprobe = static_cast<std::size_t>(state.range(0));
  linalg::NeighborProvider nn;
  nn.bind(random_matrix(4096, 32, 20), {.nprobe = nprobe});
  Matrix q = random_matrix(512, 32, 21);
  for (auto _ : state) benchmark::DoNotOptimize(nn.knn(q, 10, false));
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_KnnIvf)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_JacobiEigen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix b = random_matrix(n, n, 3);
  Matrix a = matmul_at(b, b);
  for (auto _ : state) benchmark::DoNotOptimize(linalg::eigen_symmetric(a));
}
// 256 is the latent width whose covariance ml::Pca solves in production.
BENCHMARK(BM_JacobiEigen)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_KMeansFit(benchmark::State& state) {
  Matrix x = random_matrix(2000, 32, 4);
  for (auto _ : state) {
    Rng rng(5);
    ml::KMeans km({.k = 12, .max_iters = 20});
    km.fit(x, rng);
    benchmark::DoNotOptimize(km.centroids());
  }
}
BENCHMARK(BM_KMeansFit)->Unit(benchmark::kMillisecond);

void BM_AutoencoderEpoch(benchmark::State& state) {
  Rng rng(6);
  nn::Autoencoder ae({.input_dim = 48, .hidden_dim = 256, .latent_dim = 256}, rng);
  nn::Adam opt(1e-3);
  Matrix x = random_matrix(1024, 48, 7);
  for (auto _ : state) {
    for (std::size_t start = 0; start < x.rows(); start += 128) {
      std::vector<std::size_t> idx;
      for (std::size_t i = start; i < start + 128; ++i) idx.push_back(i);
      Matrix xb = x.take_rows(idx);
      ae.zero_grad();
      Matrix h = ae.encoder().forward(xb, true);
      Matrix xhat = ae.decoder().forward(h, true);
      nn::LossGrad lg = nn::mse_loss(xhat, xb);
      Matrix gh = ae.decoder().backward(lg.grad);
      ae.encoder().backward(gh);
      opt.step(ae.params());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_AutoencoderEpoch)->Unit(benchmark::kMillisecond);

void BM_PcaFreScore(benchmark::State& state) {
  Matrix train = random_matrix(1000, 48, 8);
  ml::Pca pca({.explained_variance = 0.95});
  pca.fit(train);
  Matrix test = random_matrix(4096, 48, 9);
  for (auto _ : state) benchmark::DoNotOptimize(pca.score(test));
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_PcaFreScore)->Unit(benchmark::kMillisecond);

// ---- Kernel determinism dump -----------------------------------------------
//
// Fixed-seed outputs of every blocked kernel, printed with %.17g (enough to
// round-trip a double exactly). Byte-identical files across CND_THREADS
// values and sanitizer builds are the accumulation-order contract made
// observable; tools/check_determinism.sh diffs them.

int dump_kernels(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_micro_substrate: cannot open '%s'\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "case,index,value\n");
  std::size_t line = 0;
  auto dump_matrix = [&](const char* name, const Matrix& m) {
    for (std::size_t i = 0; i < m.size(); ++i)
      std::fprintf(f, "%s,%zu,%.17g\n", name, line++, m.data()[i]);
  };

  // k = 300 straddles the kKc = 256 panel boundary; the other dimensions
  // straddle the register tiles.
  const Matrix a = random_matrix(37, 300, 11);
  const Matrix b = random_matrix(300, 29, 12);
  dump_matrix("matmul", matmul(a, b));
  dump_matrix("matmul_bt", matmul_bt(a, random_matrix(23, 300, 13)));
  dump_matrix("matmul_at", matmul_at(random_matrix(300, 19, 14), b));
  dump_matrix("pairwise_dist",
              linalg::pairwise_dist(random_matrix(57, 13, 15),
                                    random_matrix(41, 13, 16)));

  const Matrix x = random_matrix(80, 9, 17);
  const auto nn = linalg::knn(x, x, 5, /*exclude_self=*/true);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < 5; ++j) {
      std::fprintf(f, "knn,%zu,%zu\n", line++, nn.indices[i][j]);
      std::fprintf(f, "knn,%zu,%.17g\n", line++, nn.distances[i][j]);
    }

  // IVF probe path (docs/ANN.md): approximate mode on a fixed seed. The
  // result is approximate with respect to brute force but must still be
  // byte-identical across thread counts and sanitizer builds — build and
  // search are value-deterministic by contract.
  linalg::NeighborProvider prov;
  prov.bind(random_matrix(640, 9, 18), {.nprobe = 3, .clusters = 16});
  const auto ann = prov.knn(random_matrix(64, 9, 19), 5, /*exclude_self=*/false);
  for (std::size_t i = 0; i < ann.indices.size(); ++i)
    for (std::size_t j = 0; j < 5; ++j) {
      std::fprintf(f, "ivf_knn,%zu,%zu\n", line++, ann.indices[i][j]);
      std::fprintf(f, "ivf_knn,%zu,%.17g\n", line++, ann.distances[i][j]);
    }

  std::fclose(f);
  return 0;
}

}  // namespace

// Custom main: accept the shared harness flags (notably --threads, which
// matters most here), strip them, then hand argv to google-benchmark.
// --dump-kernels short-circuits the benchmarks entirely.
int main(int argc, char** argv) {
  std::string dump_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--dump-kernels=", 0) == 0) {
      dump_path = arg.substr(std::string("--dump-kernels=").size());
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  cnd::bench::parse_options(argc, argv);
  if (!dump_path.empty()) return dump_kernels(dump_path);
  cnd::bench::strip_harness_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
