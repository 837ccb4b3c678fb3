// Unit tests for the parallel runtime (src/runtime) and its determinism
// contract: parallel_for covers every index exactly once, exceptions
// propagate, nesting is safe, and the library hot paths (matmul, detector
// fit/score) are bit-identical for CND_THREADS in {1, 4}.
#include "runtime/parallel_for.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ml/hbos.hpp"
#include "ml/isolation_forest.hpp"
#include "ml/knn_detector.hpp"
#include "ml/lof.hpp"
#include "ml/ocsvm.hpp"
#include "ml/random_forest.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace cnd {
namespace {

/// Pins the runtime to `n` lanes for one test and restores the default on
/// scope exit, so tests do not leak thread settings into each other.
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
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---- ThreadPool lifecycle --------------------------------------------------

TEST(ThreadPool, ConstructRunDestroy) {
  for (std::size_t workers : {1u, 2u, 4u}) {
    runtime::ThreadPool pool(workers);
    EXPECT_EQ(pool.n_workers(), workers);
    std::atomic<int> hits{0};
    pool.run(10, [&](std::size_t) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 10);
  }  // destructor joins cleanly
}

TEST(ThreadPool, ZeroChunksIsNoOp) {
  runtime::ThreadPool pool(2);
  pool.run(0, [&](std::size_t) { FAIL() << "chunk fn called for empty job"; });
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  runtime::ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> hits{0};
    pool.run(7, [&](std::size_t) { hits.fetch_add(1); });
    ASSERT_EQ(hits.load(), 7);
  }
}

TEST(ThreadPool, SetThreadsReconfigures) {
  {
    ThreadsGuard guard(3);
    EXPECT_EQ(runtime::threads(), 3u);
  }
  // Guard restored the default: CND_THREADS env or hardware concurrency.
  EXPECT_GE(runtime::threads(), 1u);
}

TEST(Runtime, MalformedCndThreadsFallsBackToHardwareDefault) {
  const char* prev = std::getenv("CND_THREADS");
  const std::optional<std::string> saved =
      prev ? std::optional<std::string>(prev) : std::nullopt;
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t hardware =
      std::min<std::size_t>(hw ? hw : 1, runtime::kMaxThreads);
  // set_threads(0) re-reads the environment and threads() builds no pool,
  // so no lane count below starts a thread.
  for (const char* bogus : {"-1", " 4", "+4", "4x", "0", "", "257", "100000"}) {
    ::setenv("CND_THREADS", bogus, 1);
    runtime::set_threads(0);
    EXPECT_EQ(runtime::threads(), hardware) << "CND_THREADS='" << bogus << "'";
  }
  ::setenv("CND_THREADS", "3", 1);
  runtime::set_threads(0);
  EXPECT_EQ(runtime::threads(), 3u);

  if (saved)
    ::setenv("CND_THREADS", saved->c_str(), 1);
  else
    ::unsetenv("CND_THREADS");
  runtime::set_threads(0);
}

// Refused before the pool is touched: the lane count stays as it was, so
// no count a typo names can ask the OS for that many threads.
TEST(Runtime, SetThreadsAboveCapThrows) {
  ThreadsGuard guard(3);
  EXPECT_THROW(runtime::set_threads(runtime::kMaxThreads + 1),
               std::invalid_argument);
  EXPECT_EQ(runtime::threads(), 3u);
}

// ---- parallel_for coverage -------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadsGuard guard(4);
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    for (std::size_t grain : {0u, 1u, 3u, 64u, 5000u}) {
      std::vector<std::atomic<int>> counts(n);
      runtime::parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
        ASSERT_LT(lo, hi);
        ASSERT_LE(hi, n);
        for (std::size_t i = lo; i < hi; ++i) counts[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(counts[i].load(), 1) << "index " << i << " n=" << n
                                       << " grain=" << grain;
    }
  }
}

TEST(ParallelFor, EmptyRangeDoesNothing) {
  ThreadsGuard guard(4);
  runtime::parallel_for(5, 5, 1, [&](std::size_t, std::size_t) {
    FAIL() << "fn called for empty range";
  });
  runtime::parallel_for(7, 3, 1, [&](std::size_t, std::size_t) {
    FAIL() << "fn called for inverted range";
  });
}

TEST(ParallelFor, NonZeroBeginCovered) {
  ThreadsGuard guard(4);
  std::vector<std::atomic<int>> counts(100);
  runtime::parallel_for(40, 100, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) counts[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < 40; ++i) ASSERT_EQ(counts[i].load(), 0);
  for (std::size_t i = 40; i < 100; ++i) ASSERT_EQ(counts[i].load(), 1);
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  ThreadsGuard guard(4);
  EXPECT_THROW(
      runtime::parallel_for(0, 100, 1,
                            [&](std::size_t lo, std::size_t) {
                              if (lo >= 50) throw std::runtime_error("boom");
                            }),
      std::runtime_error);
  // The pool survives a failed job and runs the next one normally.
  std::atomic<int> hits{0};
  runtime::parallel_for(0, 64, 1, [&](std::size_t lo, std::size_t hi) {
    hits.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(hits.load(), 64);
}

TEST(ParallelFor, NestedCallsRunSeriallyAndCover) {
  ThreadsGuard guard(4);
  constexpr std::size_t kOuter = 8, kInner = 200;
  std::vector<std::vector<int>> counts(kOuter, std::vector<int>(kInner, 0));
  runtime::parallel_for(0, kOuter, 1, [&](std::size_t olo, std::size_t ohi) {
    for (std::size_t o = olo; o < ohi; ++o) {
      EXPECT_TRUE(runtime::in_parallel_region());
      // Nested call: must execute inline (serially) on this thread and
      // still cover its whole range.
      runtime::parallel_for(0, kInner, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) ++counts[o][i];
      });
    }
  });
  for (const auto& row : counts)
    for (int c : row) ASSERT_EQ(c, 1);
  EXPECT_FALSE(runtime::in_parallel_region());
}

TEST(ParallelFor, SerialFallbackGetsWholeRange) {
  ThreadsGuard guard(1);
  int calls = 0;
  runtime::parallel_for(3, 47, 1, [&](std::size_t lo, std::size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 3u);
    EXPECT_EQ(hi, 47u);
  });
  EXPECT_EQ(calls, 1);
}

// ---- determinism contract: bit-identical across thread counts --------------

TEST(Determinism, MatmulBitIdenticalAcrossThreadCounts) {
  Rng rng(123);
  const Matrix a = random_matrix(97, 64, rng);   // matmul / matmul_bt / _at lhs
  const Matrix b = random_matrix(64, 41, rng);   // matmul rhs
  const Matrix bt = random_matrix(41, 64, rng);  // matmul_bt rhs (n x k)
  const Matrix at = random_matrix(97, 29, rng);  // matmul_at rhs (k x n)

  Matrix c1, c1_bt, c1_at;
  {
    ThreadsGuard guard(1);
    c1 = matmul(a, b);
    c1_bt = matmul_bt(a, bt);
    c1_at = matmul_at(a, at);
  }
  {
    ThreadsGuard guard(4);
    EXPECT_TRUE(bit_identical(matmul(a, b), c1));
    EXPECT_TRUE(bit_identical(matmul_bt(a, bt), c1_bt));
    EXPECT_TRUE(bit_identical(matmul_at(a, at), c1_at));
  }
}

TEST(Determinism, DetectorFitAndScoreBitIdenticalAcrossThreadCounts) {
  Rng data_rng(7);
  const Matrix train = random_matrix(300, 12, data_rng);
  const Matrix test = random_matrix(120, 12, data_rng);

  auto run_all = [&]() {
    std::vector<std::vector<double>> scores;
    {
      ml::KnnDetector knn({.k = 5});
      knn.fit(train);
      scores.push_back(knn.score(test));
    }
    {
      ml::Lof lof({.k = 10});
      lof.fit(train);
      scores.push_back(lof.score(test));
    }
    {
      ml::Hbos hbos;
      hbos.fit(train);
      scores.push_back(hbos.score(test));
    }
    {
      ml::OcSvm svm({.nu = 0.1});
      svm.fit(train);
      scores.push_back(svm.score(test));
    }
    {
      Rng rng(99);
      ml::IsolationForest forest({.n_trees = 20, .subsample = 64});
      forest.fit(train, rng);
      scores.push_back(forest.score(test));
    }
    return scores;
  };

  std::vector<std::vector<double>> serial;
  {
    ThreadsGuard guard(1);
    serial = run_all();
  }
  {
    ThreadsGuard guard(4);
    const auto parallel = run_all();
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t d = 0; d < serial.size(); ++d)
      EXPECT_TRUE(bit_identical(parallel[d], serial[d])) << "detector " << d;
  }
}

TEST(Determinism, RandomForestBitIdenticalAcrossThreadCounts) {
  Rng data_rng(21);
  const Matrix x = random_matrix(200, 8, data_rng);
  std::vector<std::size_t> y(200);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = x(i, 0) > 0.0 ? 1 : 0;
  const Matrix q = random_matrix(50, 8, data_rng);

  auto fit_predict = [&]() {
    Rng rng(5);
    ml::RandomForest rf({.n_trees = 16, .max_depth = 6});
    rf.fit(x, y, 2, rng);
    return rf.predict_proba(q);
  };

  Matrix serial;
  {
    ThreadsGuard guard(1);
    serial = fit_predict();
  }
  {
    ThreadsGuard guard(4);
    EXPECT_TRUE(bit_identical(fit_predict(), serial));
  }
}

}  // namespace
}  // namespace cnd
