// Unit tests for the observability subsystem (metrics registry, scoped
// timers, JSONL event sink) and the detector factory/registry built on top
// of it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/detector_factory.hpp"
#include "data/synth.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "runtime/parallel_for.hpp"

// ---- Global allocation counter for the zero-allocation assertions ----------
// Counts every operator-new in the process; tests diff the counter around the
// code under test. Only the delta matters, so gtest's own allocations between
// tests are harmless. Compiled out under sanitizer builds: ASan/TSan own the
// allocator there (replacing operator new with a malloc shim defeats their
// tracking, and GCC rejects the new/free pairing under -Werror), so the
// zero-allocation assertion degenerates to 0 == 0 in those configurations.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

#ifndef CND_SANITIZER_BUILD

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // CND_SANITIZER_BUILD

namespace cnd {
namespace {

/// Restores the global observability state a test mutated.
struct ObsGuard {
  ~ObsGuard() {
    obs::events().set_sink(nullptr);
    obs::set_enabled(false);
  }
};

// ---- MetricsRegistry --------------------------------------------------------

TEST(Metrics, CounterExactUnderParallelHammering) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("test.hammered");
  const std::size_t n_chunks = 64, adds_per_chunk = 1000;
  runtime::parallel_for(0, n_chunks, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      for (std::size_t k = 0; k < adds_per_chunk; ++k) c.add(1);
  });
  EXPECT_EQ(c.value(), n_chunks * adds_per_chunk);
}

TEST(Metrics, GaugeAddAndMaxExactUnderParallelHammering) {
  obs::MetricsRegistry reg;
  obs::Gauge& sum = reg.gauge("test.sum");
  obs::Gauge& hwm = reg.gauge("test.hwm");
  const std::size_t n = 128;
  runtime::parallel_for(0, n, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      sum.add(1.0);  // integers up to 128 are exact in double
      hwm.record_max(static_cast<double>(i));
    }
  });
  EXPECT_DOUBLE_EQ(sum.value(), static_cast<double>(n));
  EXPECT_DOUBLE_EQ(hwm.value(), static_cast<double>(n - 1));
}

TEST(Metrics, RegistryHandlesAreStable) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("same.name");
  obs::Counter& b = reg.counter("same.name");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Metrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
  obs::Histogram h({1.0, 10.0, 100.0});
  ASSERT_EQ(h.n_buckets(), 4u);  // 3 bounds + overflow

  h.record(0.5);    // <= 1       -> bucket 0
  h.record(1.0);    // == 1       -> bucket 0 (inclusive edge)
  h.record(1.0001); // (1, 10]    -> bucket 1
  h.record(10.0);   // == 10      -> bucket 1
  h.record(99.0);   // (10, 100]  -> bucket 2
  h.record(100.5);  // > 100      -> overflow

  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 99.0 + 100.5, 1e-9);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  EXPECT_THROW(obs::Histogram({}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrations) {
  obs::MetricsRegistry reg;
  reg.counter("a").add(5);
  reg.gauge("b").set(2.5);
  reg.histogram("c", {1.0}).record(0.5);
  reg.reset();
  EXPECT_EQ(reg.counter("a").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("b").value(), 0.0);
  EXPECT_EQ(reg.histogram("c").count(), 0u);
  EXPECT_EQ(reg.counter_names(), std::vector<std::string>{"a"});
  EXPECT_EQ(reg.gauge_names(), std::vector<std::string>{"b"});
  EXPECT_EQ(reg.histogram_names(), std::vector<std::string>{"c"});
}

TEST(Metrics, ToJsonContainsAllFamilies) {
  obs::MetricsRegistry reg;
  reg.counter("runs").add(2);
  reg.gauge("threshold").set(1.5);
  reg.histogram("lat_ms", {1.0, 2.0}).record(1.5);
  const std::string js = reg.to_json();
  EXPECT_EQ(js.front(), '{');
  EXPECT_EQ(js.back(), '}');
  EXPECT_NE(js.find("\"runs\":2"), std::string::npos);
  EXPECT_NE(js.find("\"threshold\":1.5"), std::string::npos);
  EXPECT_NE(js.find("\"lat_ms\""), std::string::npos);
  EXPECT_NE(js.find("\"buckets\":[0,1,0]"), std::string::npos);
}

// ---- ScopedTimer ------------------------------------------------------------

TEST(ScopedTimer, RecordsOnlyWhenEnabled) {
  ObsGuard guard;
  obs::MetricsRegistry reg;

  obs::set_enabled(false);
  {
    obs::ScopedTimer t(reg, "t.off");
    EXPECT_DOUBLE_EQ(t.stop_ms(), 0.0);
  }
  EXPECT_TRUE(reg.histogram_names().empty());  // never touched the registry

  obs::set_enabled(true);
  {
    obs::ScopedTimer t(reg, "t.on");
  }
  EXPECT_EQ(reg.histogram("t.on").count(), 1u);
}

TEST(ScopedTimer, StopReturnsElapsedAndRecordsOnce) {
  ObsGuard guard;
  obs::set_enabled(true);
  obs::MetricsRegistry reg;
  obs::ScopedTimer t(reg, "t.stop");
  const double ms = t.stop_ms();
  EXPECT_GE(ms, 0.0);
  EXPECT_DOUBLE_EQ(t.stop_ms(), 0.0);         // second stop is a no-op
  EXPECT_EQ(reg.histogram("t.stop").count(), 1u);  // dtor must not double-record
}

// ---- EventLog ---------------------------------------------------------------

TEST(EventLog, NullBackendAllocatesNothing) {
  ObsGuard guard;
  obs::events().set_sink(nullptr);
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 100; ++i)
    obs::events().emit("ev.null", {{"i", i}, {"x", 1.5}, {"s", "str"}});
  EXPECT_EQ(g_allocations.load(), before);
}

TEST(EventLog, JsonlSchemaRoundTrip) {
  ObsGuard guard;
  auto sink = std::make_shared<obs::MemorySink>();
  obs::events().set_sink(sink);
  const double third = 1.0 / 3.0;
  obs::events().emit("ev.types", {{"d", third},
                                  {"i", -7},
                                  {"u", 42u},
                                  {"b", true},
                                  {"s", "quo\"te"}});
  obs::events().set_sink(nullptr);

  const auto lines = sink->lines();
  ASSERT_EQ(lines.size(), 1u);
  const std::string& l = lines.front();
  EXPECT_EQ(l.front(), '{');
  EXPECT_EQ(l.back(), '}');
  EXPECT_NE(l.find("\"event\":\"ev.types\""), std::string::npos);
  EXPECT_NE(l.find("\"seq\":"), std::string::npos);
  EXPECT_NE(l.find("\"i\":-7"), std::string::npos);
  EXPECT_NE(l.find("\"u\":42"), std::string::npos);
  EXPECT_NE(l.find("\"b\":true"), std::string::npos);
  EXPECT_NE(l.find("\"s\":\"quo\\\"te\""), std::string::npos);

  // %.17g round-trips doubles exactly.
  const auto pos = l.find("\"d\":");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_DOUBLE_EQ(std::strtod(l.c_str() + pos + 4, nullptr), third);
}

TEST(EventLog, SequenceNumbersAreMonotonic) {
  ObsGuard guard;
  auto sink = std::make_shared<obs::MemorySink>();
  obs::events().set_sink(sink);
  obs::events().emit("ev.a");
  obs::events().emit("ev.b");
  obs::events().set_sink(nullptr);

  const auto lines = sink->lines();
  ASSERT_EQ(lines.size(), 2u);
  const auto seq_of = [](const std::string& l) {
    const auto p = l.find("\"seq\":");
    return std::strtoull(l.c_str() + p + 6, nullptr, 10);
  };
  EXPECT_EQ(seq_of(lines[1]), seq_of(lines[0]) + 1);
}

TEST(EventLog, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("x\ny\tz\r"), "x\\ny\\tz\\r");
  EXPECT_EQ(obs::json_escape(std::string("\x01", 1)), "\\u0001");
}

// ---- Detector factory -------------------------------------------------------

data::ExperienceSet small_experience_set(std::uint64_t seed = 3) {
  data::SynthSpec spec;
  spec.name = "tiny";
  spec.n_features = 12;
  spec.n_normal = 1200;
  spec.n_attack = 600;
  spec.n_attack_classes = 4;
  spec.seed = seed;
  const data::Dataset ds = data::make_synthetic(spec);
  return data::prepare_experiences(ds, {.n_experiences = 4, .seed = seed});
}

/// Small network sizes so the all-detectors sweep stays fast.
core::DetectorConfig fast_detector_config(std::uint64_t seed = 7) {
  core::DetectorConfig c;
  c.seed = seed;
  c.cnd.cfe.hidden_dim = 32;
  c.cnd.cfe.latent_dim = 8;
  c.cnd.cfe.epochs = 2;
  c.cnd.cfe.kmeans_k = 4;
  c.adcn.hidden_dim = 32;
  c.adcn.latent_dim = 8;
  c.adcn.epochs = 2;
  c.lwf.hidden_dim = 32;
  c.lwf.latent_dim = 8;
  c.lwf.epochs = 2;
  c.dif.n_representations = 4;
  c.dif.trees_per_repr = 2;
  c.ae.hidden_dim = 16;
  c.ae.latent_dim = 4;
  c.ae.epochs = 2;
  return c;
}

TEST(DetectorFactory, UnknownNameThrowsAndListsRegistry) {
  try {
    core::make_detector("NoSuchDetector");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("NoSuchDetector"), std::string::npos);
    EXPECT_NE(msg.find("CND-IDS"), std::string::npos);  // lists what exists
  }
}

TEST(DetectorFactory, NamesAreSortedAndComplete) {
  const char* const expected[] = {"ADCN", "AE",   "Adaptive", "CND-IDS", "DIF",
                                  "GMM",  "HBOS", "LOF",      "LwF",     "Maha",
                                  "OC-SVM", "PCA", "kNN"};
  const auto names = core::detector_names();
  ASSERT_EQ(names.size(), std::size(expected));
  for (std::size_t i = 0; i < names.size(); ++i) EXPECT_EQ(names[i], expected[i]);
}

TEST(DetectorFactory, EveryRegisteredNameConstructsAndScores) {
  const auto es = small_experience_set();
  const auto cfg = fast_detector_config();
  for (const std::string& name : core::detector_names()) {
    SCOPED_TRACE(name);
    const core::RunResult res = core::run_detector(name, cfg, es);
    EXPECT_EQ(res.detector_name, name);
    const double avg = res.f1.avg_all();
    EXPECT_GE(avg, 0.0);
    EXPECT_LE(avg, 1.0);
    // Static detectors are timed as continual ones are (Table IV's DIF and
    // PCA rows read these fields).
    EXPECT_GT(res.fit_ms_total, 0.0);
    EXPECT_GT(res.infer_ms_per_sample, 0.0);
  }
}

TEST(DetectorFactory, KindsMatchTheFitProtocol) {
  EXPECT_EQ(core::detector_kind("CND-IDS"), core::DetectorKind::kContinual);
  EXPECT_EQ(core::detector_kind("PCA"), core::DetectorKind::kStaticNovelty);
  EXPECT_EQ(core::detector_kind("LOF"), core::DetectorKind::kStaticOutlier);
}

// ---- Config validation ------------------------------------------------------

TEST(ConfigValidation, CndIdsRejectsBadFields) {
  core::CndIdsConfig c;
  c.cfe.lr = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  EXPECT_THROW(core::CndIds{c}, std::invalid_argument);

  c = {};
  c.pca.explained_variance = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = {};
  EXPECT_NO_THROW(c.validate());
}

// ---- Thread pool instrumentation -------------------------------------------

TEST(RuntimeObs, PoolCountsJobsAndChunks) {
  obs::MetricsRegistry& m = obs::metrics();
  const std::uint64_t jobs0 = m.counter("runtime.jobs_total").value();
  const std::uint64_t chunks0 = m.counter("runtime.chunks_total").value();
  const std::uint64_t tasks0 = m.counter("runtime.tasks_total").value();

  const std::size_t n = 40;
  std::atomic<std::size_t> executed{0};
  runtime::parallel_for(0, n, 1, [&](std::size_t lo, std::size_t hi) {
    executed.fetch_add(hi - lo);
  });

  EXPECT_EQ(executed.load(), n);
  if (runtime::threads() > 1) {
    // Multi-lane path goes through the pool: one job, one chunk per lane-
    // sized slice. Chunk and task totals advance by the same amount.
    EXPECT_EQ(m.counter("runtime.jobs_total").value(), jobs0 + 1);
    const std::uint64_t new_chunks =
        m.counter("runtime.chunks_total").value() - chunks0;
    EXPECT_GT(new_chunks, 0u);
    EXPECT_EQ(m.counter("runtime.tasks_total").value() - tasks0, new_chunks);
  } else {
    // Serial fallback never enters ThreadPool::run.
    EXPECT_EQ(m.counter("runtime.jobs_total").value(), jobs0);
  }
}

}  // namespace
}  // namespace cnd
