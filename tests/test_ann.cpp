// IVF approximate-neighbor index tests (linalg/ivf_index.{hpp,cpp},
// docs/ANN.md).
//
// The contract under test has three legs: exact mode (nprobe = 0) is
// byte-identical to brute-force linalg::knn, and the exact kNN and LOF
// detectors to scoring written out by hand over it; ANN mode (nprobe > 0)
// is approximate but bit-identical at any thread count, build and search,
// detectors included; and the scratch-driven probe loop allocates nothing
// once warm. Edge cases — empty clusters after compaction, k larger than
// any single cluster — are pinned explicitly.
#include "linalg/ivf_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/distance.hpp"
#include "ml/kmeans.hpp"
#include "ml/knn_detector.hpp"
#include "ml/lof.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

// ---- Counting allocation probe (same shape as tests/test_kernels.cpp) ------
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::size_t> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cnd {
namespace {

struct ThreadsGuard {
  explicit ThreadsGuard(std::size_t n) { runtime::set_threads(n); }
  ~ThreadsGuard() { runtime::set_threads(0); }
};

// Well-separated Gaussian clusters: the geometry the coarse quantizer is
// built for, so recall thresholds below are comfortably stable across
// platforms.
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

bool knn_identical(const linalg::Knn& a, const linalg::Knn& b) {
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

bool scores_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double recall_vs(const linalg::Knn& exact, const linalg::Knn& approx) {
  std::size_t hit = 0, total = 0;
  for (std::size_t i = 0; i < exact.indices.size(); ++i)
    for (std::size_t t : exact.indices[i]) {
      ++total;
      for (std::size_t a : approx.indices[i])
        if (a == t) {
          ++hit;
          break;
        }
    }
  return total == 0 ? 1.0 : static_cast<double>(hit) / static_cast<double>(total);
}

// ---- Recall ----------------------------------------------------------------

TEST(Ann, RecallAtTenOnGaussianClusters) {
  const Matrix ref = gaussian_clusters(4000, 16, 24, 3);
  const Matrix query = gaussian_clusters(400, 16, 24, 4);
  const linalg::Knn exact = linalg::knn(query, ref, 10, false);

  linalg::NeighborProvider prov;
  prov.bind(ref, {.nprobe = 8});
  const double r8 = recall_vs(exact, prov.knn(query, 10, false));
  EXPECT_GE(r8, 0.95) << "nprobe=8 recall@10 too low";

  // Recall is monotone in nprobe on this geometry.
  prov.bind(ref, {.nprobe = 2});
  const double r2 = recall_vs(exact, prov.knn(query, 10, false));
  EXPECT_LE(r2, r8 + 1e-12);
}

// ---- Exact mode == brute force, byte for byte ------------------------------

void expect_exact_identity() {
  const Matrix ref = gaussian_clusters(600, 9, 8, 11);
  const Matrix query = gaussian_clusters(70, 9, 8, 12);
  linalg::NeighborProvider prov;
  prov.bind(ref);  // nprobe = 0: exact contract
  ASSERT_TRUE(prov.exact());
  EXPECT_TRUE(knn_identical(prov.knn(query, 7, false),
                            linalg::knn(query, ref, 7, false)));
  EXPECT_TRUE(knn_identical(prov.knn(prov.ref(), 5, true),
                            linalg::knn(ref, ref, 5, true)));
}

TEST(Ann, ExactModeMatchesBruteForceSerial) {
  ThreadsGuard guard(1);
  expect_exact_identity();
}

TEST(Ann, ExactModeMatchesBruteForceFourThreads) {
  ThreadsGuard guard(4);
  expect_exact_identity();
}

// ---- Exact detectors == scoring written out over linalg::knn ---------------

// kNN-detector score: the mean of the k nearest reference distances.
std::vector<double> knn_detector_reference(const Matrix& ref, const Matrix& x,
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

// LOF fit + score: k-distances and local reachability densities of the
// reference set, then each query's mean neighbour lrd over its own lrd.
std::vector<double> lof_reference(const Matrix& ref, const Matrix& x,
                                  std::size_t k) {
  const linalg::Knn fitnn = linalg::knn(ref, ref, k, /*exclude_self=*/true);
  std::vector<double> kdist(ref.rows()), lrd(ref.rows());
  for (std::size_t i = 0; i < ref.rows(); ++i)
    kdist[i] = fitnn.distances[i].back();
  auto lrd_of = [&](const std::vector<double>& dists,
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

TEST(Ann, ExactDetectorsMatchBruteForceReference) {
  const Matrix ref = gaussian_clusters(3000, 16, 24, 7);
  const Matrix query = gaussian_clusters(256, 16, 24, 8);
  ml::KnnDetector knn({.k = 10});
  knn.fit(ref);
  EXPECT_TRUE(scores_identical(knn.score(query),
                               knn_detector_reference(ref, query, 10)));
  ml::Lof lof({.k = 20});
  lof.fit(ref);
  EXPECT_TRUE(scores_identical(lof.score(query), lof_reference(ref, query, 20)));
}

// ---- Determinism across thread counts --------------------------------------

TEST(Ann, BuildDeterministicAcrossThreads) {
  const Matrix ref = gaussian_clusters(1200, 12, 16, 21);
  const linalg::AnnConfig cfg{.nprobe = 4};
  linalg::IvfIndex a, b;
  {
    ThreadsGuard guard(1);
    a.build_from(ref, cfg);
  }
  {
    ThreadsGuard guard(4);
    b.build_from(ref, cfg);
  }
  ASSERT_EQ(a.n_clusters(), b.n_clusters());
  ASSERT_EQ(a.rows(), b.rows());
  EXPECT_EQ(0, std::memcmp(a.centroids().data(), b.centroids().data(),
                           a.centroids().size() * sizeof(double)));
  for (std::size_t c = 0; c < a.n_clusters(); ++c) {
    ASSERT_EQ(a.cluster_size(c), b.cluster_size(c)) << "cluster " << c;
    const auto ia = a.cluster_ids(c);
    const auto ib = b.cluster_ids(c);
    EXPECT_EQ(0, std::memcmp(ia.data(), ib.data(),
                             ia.size() * sizeof(std::uint32_t)))
        << "cluster " << c;
  }
}

TEST(Ann, SearchDeterministicAcrossThreads) {
  const Matrix ref = gaussian_clusters(1500, 10, 12, 31);
  const Matrix query = gaussian_clusters(300, 10, 12, 32);
  linalg::NeighborProvider prov;
  prov.bind(ref, {.nprobe = 3});
  linalg::Knn t1, t4;
  {
    ThreadsGuard guard(1);
    t1 = prov.knn(query, 6, false);
  }
  {
    ThreadsGuard guard(4);
    t4 = prov.knn(query, 6, false);
  }
  EXPECT_TRUE(knn_identical(t1, t4));
}

TEST(Ann, DetectorsScoreIdenticallyAcrossThreads) {
  const Matrix ref = gaussian_clusters(3000, 16, 24, 7);
  const Matrix query = gaussian_clusters(256, 16, 24, 8);
  // Fit and score at each lane count, so index build and search both count.
  const auto scores_at = [&](std::size_t lanes) {
    ThreadsGuard guard(lanes);
    ml::KnnDetector knn({.k = 10, .ann = {.nprobe = 3, .clusters = 32}});
    knn.fit(ref);
    ml::Lof lof({.k = 20, .ann = {.nprobe = 6, .clusters = 32}});
    lof.fit(ref);
    return std::pair{knn.score(query), lof.score(query)};
  };
  const auto [knn1, lof1] = scores_at(1);
  const auto [knn4, lof4] = scores_at(4);
  EXPECT_TRUE(scores_identical(knn1, knn4)) << "kNN detector, nprobe 3";
  EXPECT_TRUE(scores_identical(lof1, lof4)) << "LOF, nprobe 6";
}

// ---- Edge cases ------------------------------------------------------------

TEST(Ann, DuplicateRowsCompactEmptyClusters) {
  // 40 copies of 3 distinct points with 16 requested clusters: most clusters
  // go empty during Lloyd and must be compacted away, leaving a live index.
  Matrix ref(120, 4);
  for (std::size_t i = 0; i < ref.rows(); ++i) {
    const double v = static_cast<double>(i % 3) * 100.0;
    for (auto& x : ref.row(i)) x = v;
  }
  linalg::IvfIndex ix;
  ix.build_from(ref, {.nprobe = 1, .clusters = 16});
  ASSERT_TRUE(ix.built());
  EXPECT_LE(ix.n_clusters(), 3u);
  std::size_t members = 0;
  for (std::size_t c = 0; c < ix.n_clusters(); ++c) {
    EXPECT_GT(ix.cluster_size(c), 0u) << "empty cluster survived compaction";
    members += ix.cluster_size(c);
  }
  EXPECT_EQ(members, ref.rows());

  // Every returned neighbour of a duplicated point is at distance zero.
  linalg::NeighborProvider prov;
  prov.bind(ref, {.nprobe = 1, .clusters = 16});
  const linalg::Knn nn = prov.knn(prov.ref(), 5, true);
  for (std::size_t i = 0; i < ref.rows(); ++i)
    for (double d : nn.distances[i]) EXPECT_EQ(d, 0.0);
}

TEST(Ann, KLargerThanAnyClusterExpandsProbes) {
  const Matrix ref = gaussian_clusters(200, 6, 10, 41);
  linalg::NeighborProvider prov;
  prov.bind(ref, {.nprobe = 1, .clusters = 10});
  ASSERT_LT(prov.index()->max_cluster_size(), ref.rows());

  // k = rows forces the probe loop past nprobe until every cluster is
  // scanned, and the double re-rank then reproduces the exact answer.
  const Matrix query = gaussian_clusters(20, 6, 10, 42);
  const std::size_t k = ref.rows();
  EXPECT_TRUE(knn_identical(prov.knn(query, k, false),
                            linalg::knn(query, ref, k, false)));
}

// ---- Zero-allocation probe loop --------------------------------------------

TEST(Ann, ScratchSearchIsAllocationFreeOnceWarm) {
  ThreadsGuard guard(1);
  const Matrix ref = gaussian_clusters(800, 8, 8, 51);
  const Matrix query = gaussian_clusters(64, 8, 8, 52);
  linalg::IvfIndex ix;
  const linalg::AnnConfig cfg{.nprobe = 3};
  ix.build_from(ref, cfg);
  const std::vector<double> norms = [&] {
    std::vector<double> n;
    kernels::row_sq_norms(ref, 0, ref.rows(), n);
    return n;
  }();

  linalg::IvfIndex::Scratch sc;
  linalg::Knn out;
  for (int warm = 0; warm < 2; ++warm)
    ix.search(query, ref, norms, 5, cfg.nprobe, false, out, &sc);

  const std::size_t before = g_news.load();
  ix.search(query, ref, norms, 5, cfg.nprobe, false, out, &sc);
  EXPECT_EQ(g_news.load(), before)
      << "warm scratch-driven IVF search touched the heap";
}

// ---- Config validation and K-Means fast path -------------------------------

TEST(Ann, ValidateRejectsBadConfig) {
  linalg::AnnConfig ok;  // nprobe = 0: exact, nothing else checked
  ok.build_iters = 0;
  EXPECT_NO_THROW(ok.validate());
  linalg::AnnConfig bad{.nprobe = 2, .build_iters = 0};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(Ann, KMeansAnnPredictMatchesExactWhenAllClustersProbed) {
  const Matrix x = gaussian_clusters(500, 8, 6, 61);
  ml::KMeans exact({.k = 6});
  ml::KMeans ann({.k = 6, .ann = {.nprobe = 6}});
  Rng r1(9), r2(9);
  exact.fit(x, r1);  // identical RNG streams: fit is always exact, so the
  ann.fit(x, r2);    // two models share centroids bit for bit
  EXPECT_EQ(0, std::memcmp(exact.centroids().data(), ann.centroids().data(),
                           exact.centroids().size() * sizeof(double)));
  // Probing every centroid makes the IVF argmin total, hence exact.
  EXPECT_EQ(exact.predict(x), ann.predict(x));
}

}  // namespace
}  // namespace cnd
