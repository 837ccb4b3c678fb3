// Equivalence and allocation tests for the register-blocked kernels
// (tensor/kernels.{hpp,cpp}).
//
// The blocked kernels must be bit-identical to the naive reference kernels —
// that is the accumulation-order contract (docs/PARALLELISM.md) — at any
// thread count, over shapes that straddle every tile boundary. The second
// half of the file checks the zero-allocation promise of the `_into` hot
// paths with a counting global operator new.
#include "tensor/kernels.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "linalg/distance.hpp"
#include "ml/pca.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

// ---- Counting allocation probe ---------------------------------------------
//
// Replacing the global allocation functions is the only way to observe heap
// traffic without external tooling; the counter has no effect on behaviour.
// Sized/array forms all funnel through the same counter.
//
// GCC flags `new T` paired with the std::free inside our replaced delete as
// a mismatch once inlining exposes both; the pairing is in fact consistent
// (every form below allocates with malloc), so silence the false positive.
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

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  return m;
}

bool bit_identical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct Shape {
  std::size_t m, k, n;
};

// Straddles every tile boundary: below/at/above kMr (4) and kNr (8) in the
// output dimensions, below/at/above kKc (256) in the inner dimension, plus
// primes and off-by-ones around powers of two.
const std::vector<Shape>& sweep_shapes() {
  static const std::vector<Shape> shapes = {
      {1, 1, 1},    {1, 7, 1},     {2, 3, 5},     {3, 8, 9},    {4, 4, 4},
      {4, 8, 8},    {5, 9, 7},     {7, 5, 3},     {8, 8, 8},    {9, 17, 5},
      {12, 16, 8},  {16, 16, 16},  {17, 31, 9},   {31, 33, 17}, {33, 64, 31},
      {48, 48, 48}, {63, 65, 64},  {64, 257, 8},  {3, 256, 11}, {2, 255, 3},
      {5, 300, 12}, {100, 127, 33}, {65, 256, 9}, {2, 511, 3},  {128, 129, 127},
  };
  return shapes;
}

// ---- Blocked vs reference, bit-for-bit -------------------------------------

void sweep_all_kernels() {
  Rng rng(7);
  for (const auto& s : sweep_shapes()) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    Matrix c, ref;

    matmul_into(c, a, b);
    kernels::matmul_ref(ref, a, b);
    EXPECT_TRUE(bit_identical(c, ref)) << "matmul " << s.m << "x" << s.k << "x" << s.n;

    const Matrix bt = random_matrix(s.n, s.k, rng);  // b^T layout: n x k
    matmul_bt_into(c, a, bt);
    kernels::matmul_bt_ref(ref, a, bt);
    EXPECT_TRUE(bit_identical(c, ref)) << "matmul_bt " << s.m << "x" << s.k << "x" << s.n;

    const Matrix at = random_matrix(s.k, s.m, rng);  // a^T layout: k x m
    matmul_at_into(c, at, b);
    kernels::matmul_at_ref(ref, at, b);
    EXPECT_TRUE(bit_identical(c, ref)) << "matmul_at " << s.m << "x" << s.k << "x" << s.n;

    c = random_matrix(s.m, s.n, rng);  // accumulation starts from existing c
    ref = c;
    matmul_at_add_into(c, at, b);
    kernels::matmul_at_add_ref(ref, at, b);
    EXPECT_TRUE(bit_identical(c, ref)) << "matmul_at_add " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(Kernels, MatchesReferenceSerial) {
  ThreadsGuard guard(1);
  sweep_all_kernels();
}

TEST(Kernels, MatchesReferenceFourThreads) {
  ThreadsGuard guard(4);
  sweep_all_kernels();
}

TEST(Kernels, RowSliceMatchesFullProduct) {
  Rng rng(11);
  // k = 300 spans two p-panels, so a slice resumes C between panels; 41
  // output columns leave a one-column last Bᵀ panel.
  using Dims = std::pair<std::size_t, std::size_t>;
  for (const auto& [k, nb] : {Dims{19, 23}, Dims{300, 41}}) {
    SCOPED_TRACE(k);
    const Matrix a = random_matrix(37, k, rng);
    const Matrix b = random_matrix(nb, k, rng);
    Matrix full, slice, ref;
    matmul_bt_into(full, a, b);
    kernels::matmul_bt_ref(ref, a, b);
    EXPECT_TRUE(bit_identical(full, ref));
    const std::vector<Dims> ranges = {{0, 37}, {5, 12}, {0, 1}, {36, 37}, {8, 8}};
    for (auto [lo, hi] : ranges) {
      matmul_bt_rows_into(slice, a, lo, hi, b);
      ASSERT_EQ(slice.rows(), hi - lo);
      for (std::size_t i = lo; i < hi; ++i)
        for (std::size_t j = 0; j < b.rows(); ++j)
          EXPECT_EQ(slice(i - lo, j), full(i, j));
    }
  }
}

TEST(Kernels, ElementwiseHelpers) {
  Rng rng(3);
  const Matrix a = random_matrix(9, 13, rng);
  const std::vector<double> v = random_matrix(1, 13, rng).row_vec(0);

  Matrix out;
  sub_rowvec_into(out, a, v);
  EXPECT_TRUE(bit_identical(out, sub_rowvec(a, v)));

  Matrix inplace = a;
  add_rowvec_inplace(inplace, v);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      EXPECT_EQ(inplace(i, j), a(i, j) + v[j]);
}

TEST(Kernels, IntoVariantsRejectBadShapes) {
  Matrix a(3, 4), b(5, 2), c;
  EXPECT_THROW(matmul_into(c, a, b), std::invalid_argument);
  EXPECT_THROW(matmul_bt_into(c, a, Matrix(2, 5)), std::invalid_argument);
  EXPECT_THROW(matmul_at_into(c, a, Matrix(4, 2)), std::invalid_argument);
  Matrix acc(3, 3);  // wrong: a^T(4x3) * b(3x2) wants 4 x 2
  EXPECT_THROW(matmul_at_add_into(acc, a, Matrix(3, 2)), std::invalid_argument);
  EXPECT_THROW(sub_rowvec_into(c, a, std::vector<double>(3)), std::invalid_argument);
  EXPECT_THROW(matmul_bt_rows_into(c, a, 2, 1, Matrix(5, 4)), std::invalid_argument);
}

TEST(Kernels, IntoVariantsRejectAliasedOutput) {
  Matrix a(4, 4, 1.0), b(4, 4, 2.0);
  EXPECT_THROW(matmul_into(a, a, b), std::invalid_argument);
  EXPECT_THROW(matmul_into(b, a, b), std::invalid_argument);
  EXPECT_THROW(matmul_bt_into(a, a, b), std::invalid_argument);
  EXPECT_THROW(matmul_at_into(a, a, b), std::invalid_argument);
  EXPECT_THROW(matmul_at_add_into(a, a, b), std::invalid_argument);
  EXPECT_THROW(sub_rowvec_into(a, a, std::vector<double>(4)), std::invalid_argument);
}

// ---- matmul wrappers stay on the blocked kernels ---------------------------

TEST(Kernels, AllocatingWrappersMatchReference) {
  Rng rng(19);
  const Matrix a = random_matrix(21, 34, rng);
  const Matrix b = random_matrix(34, 13, rng);
  Matrix ref;
  kernels::matmul_ref(ref, a, b);
  EXPECT_TRUE(bit_identical(matmul(a, b), ref));
  const Matrix bt = random_matrix(13, 34, rng);
  kernels::matmul_bt_ref(ref, a, bt);
  EXPECT_TRUE(bit_identical(matmul_bt(a, bt), ref));
  const Matrix at = random_matrix(34, 21, rng);
  kernels::matmul_at_ref(ref, at, b);
  EXPECT_TRUE(bit_identical(matmul_at(at, b), ref));
}

// ---- Fused distances -------------------------------------------------------

TEST(Kernels, FusedSelfDistanceIsExactlyZero) {
  Rng rng(23);
  const Matrix a = random_matrix(40, 17, rng);
  const Matrix d = linalg::pairwise_dist(a, a);
  for (std::size_t i = 0; i < a.rows(); ++i) EXPECT_EQ(d(i, i), 0.0);
}

TEST(Kernels, FusedDistanceMatchesScalarWithinTolerance) {
  Rng rng(29);
  const Matrix a = random_matrix(33, 21, rng);
  const Matrix b = random_matrix(27, 21, rng);
  Workspace ws;
  Matrix d2;
  linalg::pairwise_sq_dist_into(d2, a, b, ws);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const double exact = sq_dist(a.row(i), b.row(j));
      EXPECT_NEAR(d2(i, j), exact, 1e-9 * (1.0 + exact));
    }
}

TEST(Kernels, DistancesThreadInvariant) {
  Rng rng(31);
  const Matrix sq = random_matrix(70, 12, rng);
  // Rectangular: 57 queries against 41 references, a partial last Bᵀ panel.
  const Matrix q = random_matrix(57, 13, rng);
  const Matrix ref = random_matrix(41, 13, rng);
  for (const auto& [a, b] : {std::pair{&sq, &sq}, std::pair{&q, &ref}}) {
    SCOPED_TRACE(a->rows());
    const bool self = a == b;
    Matrix d1, d4;
    linalg::Knn k1, k4;
    {
      ThreadsGuard guard(1);
      d1 = linalg::pairwise_dist(*a, *b);
      k1 = linalg::knn(*a, *b, 5, self);
    }
    {
      ThreadsGuard guard(4);
      d4 = linalg::pairwise_dist(*a, *b);
      k4 = linalg::knn(*a, *b, 5, self);
    }
    EXPECT_TRUE(bit_identical(d1, d4));
    EXPECT_EQ(k1.indices, k4.indices);
    for (std::size_t i = 0; i < a->rows(); ++i)
      EXPECT_EQ(k1.distances[i], k4.distances[i]);
  }
}

TEST(Kernels, KnnBreaksDistanceTiesByAscendingIndex) {
  // Four reference points all at distance 1 from the origin query: the
  // bounded heap must keep the lowest indices, in ascending order.
  Matrix ref{{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
  Matrix q{{0, 0}};
  const auto nn = linalg::knn(q, ref, 3, /*exclude_self=*/false);
  EXPECT_EQ(nn.indices[0], (std::vector<std::size_t>{0, 1, 2}));
}

// ---- Zero-allocation steady state ------------------------------------------
//
// All probes pin the runtime to one lane: with threads() == 1 parallel_for
// runs inline with no pool, so any allocation observed belongs to the code
// under test. Two warm-up iterations size every cache/scratch buffer, after
// which the counter must stand still.

TEST(ZeroAlloc, LinearForwardBackwardSteadyState) {
  ThreadsGuard guard(1);
  Rng rng(5);
  nn::Linear lin(32, 16, rng);
  const Matrix x = random_matrix(8, 32, rng);
  const Matrix gout = random_matrix(8, 16, rng);
  Matrix y, gin;
  for (int i = 0; i < 2; ++i) {
    lin.forward_into(x, y, /*train=*/true);
    lin.backward_into(gout, gin);
  }
  const std::size_t before = g_news.load();
  for (int i = 0; i < 10; ++i) {
    lin.forward_into(x, y, /*train=*/true);
    lin.backward_into(gout, gin);
  }
  EXPECT_EQ(g_news.load() - before, 0u);
}

TEST(ZeroAlloc, SequentialAutoencoderStepSteadyState) {
  ThreadsGuard guard(1);
  Rng rng(9);
  nn::Sequential net;
  net.add(std::make_unique<nn::Linear>(24, 12, rng));
  net.add(std::make_unique<nn::ReLU>());
  net.add(std::make_unique<nn::Linear>(12, 24, rng));
  const Matrix x = random_matrix(16, 24, rng);
  const Matrix gout = random_matrix(16, 24, rng);
  Matrix y, gin;
  for (int i = 0; i < 2; ++i) {
    net.zero_grad();
    net.forward_into(x, y, /*train=*/true);
    net.backward_into(gout, gin);
  }
  const std::size_t before = g_news.load();
  for (int i = 0; i < 10; ++i) {
    net.zero_grad();
    net.forward_into(x, y, /*train=*/true);
    net.backward_into(gout, gin);
  }
  EXPECT_EQ(g_news.load() - before, 0u);
}

TEST(ZeroAlloc, PcaScoreIntoSteadyState) {
  ThreadsGuard guard(1);
  Rng rng(13);
  const Matrix train = random_matrix(64, 10, rng);
  ml::Pca pca({.explained_variance = 0.9});
  pca.fit(train);
  const Matrix x = random_matrix(32, 10, rng);
  Workspace ws;
  std::vector<double> scores;
  for (int i = 0; i < 2; ++i) pca.score_into(x, scores, ws);
  EXPECT_EQ(scores, pca.score(x));  // bit-identical to the allocating path
  const std::size_t before = g_news.load();
  for (int i = 0; i < 10; ++i) pca.score_into(x, scores, ws);
  EXPECT_EQ(g_news.load() - before, 0u);
}

TEST(ZeroAlloc, PairwiseSqDistIntoSteadyState) {
  ThreadsGuard guard(1);
  Rng rng(17);
  const Matrix a = random_matrix(40, 300, rng);  // two p-panels
  const Matrix b = random_matrix(13, 300, rng);  // a padded last Bᵀ panel
  Workspace ws;
  Matrix d2;
  for (int i = 0; i < 2; ++i) linalg::pairwise_sq_dist_into(d2, a, b, ws);
  const std::size_t before = g_news.load();
  for (int i = 0; i < 10; ++i) linalg::pairwise_sq_dist_into(d2, a, b, ws);
  EXPECT_EQ(g_news.load() - before, 0u);
}

TEST(ZeroAlloc, WorkspaceSlotsReuseAllocations) {
  Workspace ws;
  ws.mat(0, 8, 8);
  ws.vec(0, 64);
  const std::size_t before = g_news.load();
  for (int i = 0; i < 10; ++i) {
    ws.mat(0, 8, 8);
    ws.mat(0, 4, 4);  // shrinking reuses capacity
    ws.vec(0, 64);
    ws.vec(0, 16);
  }
  EXPECT_EQ(g_news.load() - before, 0u);
}

}  // namespace
}  // namespace cnd
