// Regression tests for bench::parse_options: valid flags parse, malformed
// values throw std::invalid_argument instead of silently defaulting, and
// --threads applies to the parallel runtime.
#include "bench_common.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace cnd {
namespace {

/// Build a (argc, argv) pair from string arguments; storage outlives the call.
struct Argv {
  explicit Argv(std::vector<std::string> args) : store(std::move(args)) {
    ptrs.push_back(prog);
    for (auto& s : store) ptrs.push_back(s.data());
  }
  int argc() { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }

  char prog[6] = "bench";
  std::vector<std::string> store;
  std::vector<char*> ptrs;
};

bench::BenchOptions parse(std::vector<std::string> args) {
  Argv a(std::move(args));
  return bench::parse_options(a.argc(), a.argv());
}

TEST(BenchOptions, Defaults) {
  const bench::BenchOptions o = parse({});
  EXPECT_DOUBLE_EQ(o.size_scale, 0.5);
  EXPECT_EQ(o.seed, 42u);
  EXPECT_FALSE(o.verbose);
  EXPECT_EQ(o.threads, 0u);
}

TEST(BenchOptions, ParsesAllFlags) {
  const bench::BenchOptions o =
      parse({"--scale=0.25", "--seed=7", "--verbose", "--threads=2"});
  EXPECT_DOUBLE_EQ(o.size_scale, 0.25);
  EXPECT_EQ(o.seed, 7u);
  EXPECT_TRUE(o.verbose);
  EXPECT_EQ(o.threads, 2u);
  // --threads was applied to the runtime.
  EXPECT_EQ(runtime::threads(), 2u);
  runtime::set_threads(0);  // restore the default for other tests
}

TEST(BenchOptions, UnknownFlagsAreIgnored) {
  // google-benchmark binaries forward their own --benchmark_* flags.
  const bench::BenchOptions o = parse({"--benchmark_filter=BM_Pca", "extra"});
  EXPECT_DOUBLE_EQ(o.size_scale, 0.5);
}

TEST(BenchOptions, MalformedScaleThrows) {
  EXPECT_THROW(parse({"--scale=abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"--scale="}), std::invalid_argument);
  EXPECT_THROW(parse({"--scale=0.5x"}), std::invalid_argument);
  EXPECT_THROW(parse({"--scale=0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--scale=-1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--scale=nan"}), std::invalid_argument);
  EXPECT_THROW(parse({"--scale=inf"}), std::invalid_argument);
}

TEST(BenchOptions, MalformedSeedThrows) {
  EXPECT_THROW(parse({"--seed=12x"}), std::invalid_argument);
  EXPECT_THROW(parse({"--seed="}), std::invalid_argument);
  EXPECT_THROW(parse({"--seed=abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"--seed=-3"}), std::invalid_argument);
  EXPECT_THROW(parse({"--seed= -1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--seed=+1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--seed=18446744073709551616"}), std::invalid_argument);
}

TEST(BenchOptions, MalformedThreadsThrows) {
  EXPECT_THROW(parse({"--threads=abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"--threads="}), std::invalid_argument);
  EXPECT_THROW(parse({"--threads=0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--threads=2x"}), std::invalid_argument);
  // Parsed before --threads reaches the runtime, so no lane count is set.
  EXPECT_THROW(parse({"--threads= -1"}), std::invalid_argument);
  // Above runtime::kMaxThreads: set_threads refuses it before the pool
  // would start a thread.
  EXPECT_THROW(parse({"--threads=257"}), std::invalid_argument);
}

TEST(BenchOptions, MetricsOutRequiresAPath) {
  EXPECT_THROW(parse({"--metrics-out="}), std::invalid_argument);
  EXPECT_THROW(parse({"--metrics-out"}), std::invalid_argument);
}

TEST(BenchOptions, MetricsOutEnablesObservability) {
  const std::string path =
      ::testing::TempDir() + "/test_bench_options_metrics.jsonl";
  // Parsing --metrics-out turns observability on and attaches a file sink;
  // both the '=' and separate-argument spellings must work.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--metrics-out=" + path},
        std::vector<std::string>{"--metrics-out", path}}) {
    const bench::BenchOptions o = parse(args);
    EXPECT_EQ(o.metrics_out, path);
    EXPECT_TRUE(obs::enabled());
    EXPECT_TRUE(obs::events().enabled());
    obs::events().set_sink(nullptr);  // restore the null backend
    obs::set_enabled(false);
  }
  std::remove(path.c_str());
}

TEST(BenchOptions, StripHarnessFlagsRemovesMetricsOut) {
  Argv a({"--metrics-out=x.jsonl", "--keep1", "--metrics-out", "y.jsonl",
          "--keep2", "--scale=0.5"});
  int argc = a.argc();
  bench::strip_harness_flags(argc, a.argv());
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(a.argv()[1], "--keep1");
  EXPECT_STREQ(a.argv()[2], "--keep2");
}

}  // namespace
}  // namespace cnd
