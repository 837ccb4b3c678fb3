// Serving layer tests: flow-record files, the admission queue, artifact
// snapshot/restore byte-identity, and hot-swap under load (docs/SERVING.md).
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <thread>

#include "core/detector_factory.hpp"
#include "core/explanation.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/artifact.hpp"
#include "serve/flow_record.hpp"
#include "serve/ring_buffer.hpp"
#include "serve/service.hpp"
#include "tensor/rng.hpp"

namespace cnd {
namespace {

Matrix gaussian(Rng& rng, std::size_t n, std::size_t d, double shift = 0.0) {
  Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < d; ++j)
      x(i, j) = rng.normal(j == 0 ? shift : 0.0, 1.0);
  return x;
}

/// Small-but-real training config so every test trains in milliseconds.
core::DetectorConfig tiny_cfg(std::uint64_t seed = 11) {
  core::DetectorConfig cfg;
  cfg.seed = seed;
  cfg.cnd.seed = seed;
  cfg.cnd.cfe.hidden_dim = 16;
  cfg.cnd.cfe.latent_dim = 8;
  cfg.cnd.cfe.epochs = 2;
  cfg.cnd.cfe.kmeans_k = 2;
  return cfg;
}

void expect_bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]), std::bit_cast<std::uint64_t>(b[i]))
        << "score " << i << " differs: " << a[i] << " vs " << b[i];
}

// ---- FlowRecordFile / FlowRecordWriter --------------------------------------

TEST(FlowRecord, RoundTripsThroughFile) {
  Rng rng(1);
  const Matrix x = gaussian(rng, 37, 5);
  const std::string path = "test_flow_record.bin";
  {
    serve::FlowRecordWriter w(path, 5);
    w.append(x);
    EXPECT_EQ(w.rows_written(), 37u);
    w.close();
  }
  serve::FlowRecordFile f(path);
  EXPECT_EQ(f.rows(), 37u);
  EXPECT_EQ(f.dim(), 5u);
  // The payload is float32: reading back widens the narrowed value exactly.
  for (std::size_t i = 0; i < f.rows(); ++i) {
    const auto row = f.row(i);
    for (std::size_t j = 0; j < f.dim(); ++j)
      EXPECT_EQ(static_cast<double>(row[j]),
                static_cast<double>(static_cast<float>(x(i, j))));
  }
  Matrix batch;
  f.copy_rows_into(10, 20, batch);
  ASSERT_EQ(batch.rows(), 10u);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(batch(i, 3), static_cast<double>(f.row(10 + i)[3]));
  std::remove(path.c_str());
}

TEST(FlowRecord, RejectsGarbageAndTruncation) {
  const std::string path = "test_flow_bad.bin";
  {
    std::FILE* fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    std::fputs("not a flow record at all........", fp);
    std::fclose(fp);
  }
  EXPECT_THROW(serve::FlowRecordFile{path}, std::invalid_argument);
  std::remove(path.c_str());
  EXPECT_THROW(serve::FlowRecordFile{"no_such_file.bin"}, std::runtime_error);
}

TEST(FlowRecord, RejectsHeaderWhoseSizeProductWraps) {
  // A bare 20-byte header claiming 2^62 rows of 4 floats: in unchecked
  // uint64_t arithmetic 2^62 * 4 * 4 wraps to 0, which would "fit" the
  // empty payload and open 2^62 rows with no data behind them.
  const std::string path = "test_flow_wrap.bin";
  {
    const std::uint32_t magic = serve::kFlowMagic, version = serve::kFlowVersion;
    const std::uint32_t dim = 4;
    const std::uint64_t count = std::uint64_t{1} << 62;
    std::FILE* fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    std::fwrite(&magic, 4, 1, fp);
    std::fwrite(&version, 4, 1, fp);
    std::fwrite(&dim, 4, 1, fp);
    std::fwrite(&count, 8, 1, fp);
    std::fclose(fp);
  }
  EXPECT_THROW(serve::FlowRecordFile{path}, std::invalid_argument);
  std::remove(path.c_str());
}

TEST(FlowRecord, WriterRejectsMismatchedWidth) {
  serve::FlowRecordWriter w("test_flow_w.bin", 4);
  Rng rng(2);
  EXPECT_THROW(w.append(gaussian(rng, 3, 5)), std::invalid_argument);
  w.close();
  std::remove("test_flow_w.bin");
}

// /dev/full accepts the open and fails every write with ENOSPC, as a full
// disk does; a writer must throw naming the path instead of returning.
TEST(FlowRecord, WriterFailsOnAFullDisk) {
  if (!std::ofstream("/dev/full")) GTEST_SKIP() << "/dev/full is absent";
  serve::FlowRecordWriter w("/dev/full", 4);
  Rng rng(3);
  w.append(gaussian(rng, 8, 4));
  try {
    w.close();
    ADD_FAILURE() << "FlowRecordWriter::close returned on a full disk";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos) << e.what();
  }
}

// ---- RingBuffer -------------------------------------------------------------

TEST(RingBuffer, RejectsWhenFullNeverBlocks) {
  serve::RingBuffer<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: reject, do not block
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_TRUE(q.try_push(3));  // slot freed
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(RingBuffer, CloseDrainsThenSignalsShutdown) {
  serve::RingBuffer<int> q(4);
  EXPECT_TRUE(q.try_push(7));
  q.close();
  EXPECT_FALSE(q.try_push(8));        // closed: no more admissions
  EXPECT_EQ(q.pop().value(), 7);      // existing items drain
  EXPECT_FALSE(q.pop().has_value());  // then shutdown
}

TEST(RingBuffer, PopBlocksUntilPush) {
  serve::RingBuffer<int> q(1);
  std::thread consumer([&] { EXPECT_EQ(q.pop().value(), 42); });
  EXPECT_TRUE(q.try_push(42));
  consumer.join();
}

TEST(RingBuffer, CapacityOneAlternatesPushPop) {
  serve::RingBuffer<int> q(1);
  EXPECT_EQ(q.capacity(), 1u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(q.try_push(i));
    EXPECT_FALSE(q.try_push(i + 100));  // a single slot: second push rejects
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.pop().value(), i);
    EXPECT_EQ(q.size(), 0u);
  }
}

TEST(RingBuffer, FullWraparoundPreservesFifoOrder) {
  // Interleave pushes and pops so head_ crosses the index wrap several
  // times; FIFO order must hold throughout.
  serve::RingBuffer<int> q(3);
  int next = 0, expect = 0;
  for (int round = 0; round < 4; ++round) {
    while (q.try_push(next)) ++next;  // fill to capacity
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.pop().value(), expect++);  // free one slot across the wrap
    EXPECT_EQ(q.pop().value(), expect++);
    EXPECT_TRUE(q.try_push(next++));  // re-admit into the wrapped slot
  }
  while (q.size() > 0) EXPECT_EQ(q.pop().value(), expect++);
  EXPECT_EQ(next, expect);  // every admitted item came out, in order
}

TEST(RingBuffer, TryPushAfterDrainingClosedBufferStillRejects) {
  serve::RingBuffer<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  q.close();
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());  // drained + closed: shutdown signal
  // Capacity is available again, but closed wins: admission stays shut.
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.size(), 0u);
}

// ---- Snapshot/restore byte-identity across the registry ---------------------

// Every snapshot-capable registry detector must restore to a replica that
// scores byte-identically at any thread count; every other detector must
// refuse loudly. This test IS the registry-coverage sweep: a new detector
// either lands in the capable set and round-trips, or throws.
TEST(Snapshot, RegistryRoundTripsByteIdenticalAt1And4Threads) {
  Rng rng(3);
  const Matrix n_clean = gaussian(rng, 96, 6);
  const Matrix stream = gaussian(rng, 64, 6, 0.5);
  const Matrix x_test = gaussian(rng, 48, 6, 2.0);

  std::size_t capable = 0;
  for (const std::string& name : core::detector_names()) {
    auto det = core::make_detector(name, tiny_cfg());
    if (!det->supports_snapshot()) {
      std::ostringstream os;
      EXPECT_THROW(det->snapshot(os), std::logic_error) << name;
      continue;
    }
    ++capable;
    Matrix seed_x;
    std::vector<int> seed_y;
    det->setup(core::SetupContext{n_clean, seed_x, seed_y});
    det->observe_experience(stream);
    const std::vector<double> want = det->score(x_test);

    std::ostringstream os(std::ios::binary);
    det->snapshot(os);
    const std::string bytes = std::move(os).str();

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      runtime::set_threads(threads);
      auto replica = core::make_detector(name, tiny_cfg());
      std::istringstream is(bytes, std::ios::binary);
      replica->restore(is);
      expect_bits_equal(want, replica->score(x_test));
      // A replica's own snapshot reproduces the artifact bit-for-bit:
      // snapshot ∘ restore is idempotent.
      std::ostringstream os2(std::ios::binary);
      replica->snapshot(os2);
      EXPECT_EQ(bytes, std::move(os2).str()) << name;
    }
    runtime::set_threads(0);
  }
  EXPECT_GE(capable, 2u);  // CND-IDS and Adaptive at minimum
}

TEST(Snapshot, RestoredReplicaIsInferenceOnly) {
  Rng rng(4);
  const Matrix n_clean = gaussian(rng, 96, 6);
  auto det = core::make_detector("CND-IDS", tiny_cfg());
  Matrix seed_x;
  std::vector<int> seed_y;
  det->setup(core::SetupContext{n_clean, seed_x, seed_y});
  det->observe_experience(n_clean);

  const auto artifact = serve::make_artifact(1, "CND-IDS", 0.5, *det);
  auto replica = serve::restore_replica(*artifact, tiny_cfg());
  EXPECT_THROW(replica->observe_experience(n_clean), std::logic_error);
  // The trainer that produced the snapshot keeps training.
  EXPECT_NO_THROW(det->observe_experience(n_clean));
}

TEST(Snapshot, ArtifactFileRoundTrip) {
  Rng rng(5);
  const Matrix n_clean = gaussian(rng, 96, 6);
  auto det = core::make_detector("Adaptive", tiny_cfg());
  Matrix seed_x;
  std::vector<int> seed_y;
  det->setup(core::SetupContext{n_clean, seed_x, seed_y});
  det->observe_experience(n_clean);

  const auto artifact = serve::make_artifact(3, "Adaptive", 1.25, *det);
  const std::string path = "test_artifact.bin";
  serve::save_artifact(path, *artifact);
  const serve::ServingArtifact loaded = serve::load_artifact(path);
  EXPECT_EQ(loaded.version, 3u);
  EXPECT_EQ(loaded.detector, "Adaptive");
  EXPECT_EQ(loaded.threshold, 1.25);
  EXPECT_EQ(loaded.model_bytes, artifact->model_bytes);

  const Matrix x_test = gaussian(rng, 32, 6, 1.0);
  expect_bits_equal(det->score(x_test),
                    serve::restore_replica(loaded, tiny_cfg())->score(x_test));
  std::remove(path.c_str());
}

TEST(Snapshot, SaveArtifactFailsOnAFullDisk) {
  if (!std::ofstream("/dev/full")) GTEST_SKIP() << "/dev/full is absent";
  const serve::ServingArtifact a{.version = 1, .detector = "CND-IDS",
                                 .threshold = 0.5, .model_bytes = "model"};
  try {
    serve::save_artifact("/dev/full", a);
    ADD_FAILURE() << "save_artifact returned on a full disk";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos) << e.what();
  }
}

TEST(Snapshot, LoadArtifactRejectsAFlippedThresholdByte) {
  Rng rng(14);
  const Matrix n_clean = gaussian(rng, 96, 6);
  auto det = core::make_detector("CND-IDS", tiny_cfg());
  Matrix seed_x;
  std::vector<int> seed_y;
  det->setup(core::SetupContext{n_clean, seed_x, seed_y});
  det->observe_experience(n_clean);
  const double threshold = 155.9;
  const std::string path = "test_artifact_flip.bin";
  serve::save_artifact(path, *serve::make_artifact(1, "CND-IDS", threshold, *det));

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  char pattern[sizeof(double)];
  std::memcpy(pattern, &threshold, sizeof(double));
  const std::size_t at = bytes.find(std::string(pattern, sizeof(double)));
  ASSERT_NE(at, std::string::npos);
  // The top byte holds the sign and exponent: one bit there rescales the
  // alarm level by orders of magnitude while the model bytes stay intact.
  bytes[at + sizeof(double) - 1] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(serve::load_artifact(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Snapshot, LoadArtifactRejectsMissingFile) {
  EXPECT_THROW(serve::load_artifact("no_such_artifact.bin"), std::runtime_error);
}

// `cnd restore --explain` runs on a replica: its attributions must be the
// trainer's, for CND-IDS and for Adaptive (explained through its inner
// CND-IDS). Detectors without an encoder and PCA head are refused.
TEST(Snapshot, RestoredReplicaExplainsLikeItsTrainer) {
  Rng rng(15);
  const Matrix n_clean = gaussian(rng, 96, 6);
  const Matrix x_test = gaussian(rng, 24, 6, 2.0);
  for (const std::string name : {"CND-IDS", "Adaptive"}) {
    auto det = core::make_detector(name, tiny_cfg());
    Matrix seed_x;
    std::vector<int> seed_y;
    det->setup(core::SetupContext{n_clean, seed_x, seed_y});
    det->observe_experience(n_clean);
    const auto replica =
        serve::restore_replica(*serve::make_artifact(1, name, 0.5, *det), tiny_cfg());

    const auto want = core::explain_detector(*det, x_test, /*top_k=*/0);
    const auto got = core::explain_detector(*replica, x_test, /*top_k=*/0);
    ASSERT_EQ(want.size(), got.size()) << name;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i].size(), got[i].size()) << name;
      for (std::size_t k = 0; k < want[i].size(); ++k) {
        EXPECT_EQ(want[i][k].feature, got[i][k].feature) << name;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(want[i][k].contribution),
                  std::bit_cast<std::uint64_t>(got[i][k].contribution))
            << name;
      }
    }
  }
  EXPECT_THROW(core::explain_detector(*core::make_detector("kNN"), x_test),
               std::invalid_argument);
}

// ---- ScoringService ---------------------------------------------------------

serve::ServiceConfig tiny_service(std::size_t shards, std::size_t adapt_every = 0,
                                  const std::string& detector = "CND-IDS") {
  serve::ServiceConfig cfg;
  cfg.detector = detector;
  cfg.detector_cfg = tiny_cfg();
  cfg.shards = shards;
  cfg.queue_capacity = 4;
  cfg.adapt_interval_flows = adapt_every;
  return cfg;
}

TEST(ScoringService, SubmitBeforeBootstrapThrows) {
  serve::ScoringService svc(tiny_service(1));
  EXPECT_THROW(svc.try_submit(Matrix(4, 6, 0.0)), std::logic_error);
}

TEST(ScoringService, ValidateRejectsBadConfig) {
  const auto rejects = [](const auto& mutate) {
    serve::ServiceConfig cfg = tiny_service(1);
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    EXPECT_THROW(serve::ScoringService{cfg}, std::invalid_argument);
  };
  rejects([](serve::ServiceConfig& c) { c.shards = 0; });
  // Rejected at construction; workers start only in bootstrap.
  rejects([](serve::ServiceConfig& c) { c.shards = serve::kMaxShards + 1; });
  rejects([](serve::ServiceConfig& c) { c.queue_capacity = 0; });
  rejects([](serve::ServiceConfig& c) { c.detector.clear(); });
  EXPECT_NO_THROW(tiny_service(1).validate());
}

TEST(ScoringService, BootstrapRejectsNonFiniteCleanWindow) {
  Rng rng(16);
  Matrix n_clean = gaussian(rng, 96, 6);
  n_clean(3, 0) = std::numeric_limits<double>::quiet_NaN();
  serve::ScoringService svc(tiny_service(1));
  try {
    svc.bootstrap(n_clean);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("clean window row 3 has a non-finite feature"),
              std::string::npos)
        << e.what();
  }
  // Nothing was trained or started: the service is still unbootstrapped.
  EXPECT_THROW(svc.try_submit(Matrix(4, 6, 0.0)), std::logic_error);
}

TEST(ScoringService, RejectsBatchWidthDifferentFromCleanWindow) {
  Rng rng(11);
  serve::ScoringService svc(tiny_service(1));
  svc.bootstrap(gaussian(rng, 64, 6));
  EXPECT_THROW(svc.try_submit(Matrix(8, 7, 0.0)), std::invalid_argument);
  EXPECT_EQ(svc.flows_admitted(), 0u);
  EXPECT_TRUE(svc.results().empty());
}

TEST(ScoringService, EmitsBootstrapAndAdaptationEvents) {
  auto sink = std::make_shared<obs::MemorySink>();
  obs::events().set_sink(sink);
  Rng rng(17);
  {
    serve::ScoringService svc(tiny_service(1, 64));
    svc.bootstrap(gaussian(rng, 64, 6));
    for (int b = 0; b < 2; ++b) EXPECT_TRUE(svc.try_submit(gaussian(rng, 32, 6)));
    svc.drain();
    EXPECT_EQ(svc.adaptations(), 1u);
  }
  obs::events().set_sink(nullptr);

  bool saw_bootstrap = false, saw_adaptation = false;
  for (const auto& l : sink->lines()) {
    saw_bootstrap |= l.find("\"event\":\"serve.bootstrap\"") != std::string::npos;
    saw_adaptation |= l.find("\"event\":\"serve.adaptation\"") != std::string::npos;
  }
  EXPECT_TRUE(saw_bootstrap);
  EXPECT_TRUE(saw_adaptation);
}

TEST(ScoringService, RejectsNonSnapshotDetector) {
  serve::ServiceConfig cfg = tiny_service(1);
  cfg.detector = "PCA";
  serve::ScoringService svc(cfg);
  Rng rng(6);
  EXPECT_THROW(svc.bootstrap(gaussian(rng, 96, 6)), std::invalid_argument);
}

/// Run `n_batches` batches through a service and return the concatenated
/// scores (admission order). Retries rejected submissions so the scored set
/// is the full stream regardless of queue pressure.
std::vector<double> run_service(const serve::ServiceConfig& cfg,
                                const Matrix& n_clean,
                                const std::vector<Matrix>& batches) {
  serve::ScoringService svc(cfg);
  svc.bootstrap(n_clean);
  for (const Matrix& b : batches)
    while (!svc.try_submit(b)) std::this_thread::yield();
  svc.drain();
  svc.shutdown();
  std::vector<double> scores;
  for (const auto& r : svc.results())
    scores.insert(scores.end(), r.scores.begin(), r.scores.end());
  return scores;
}

// With adaptation off the threshold stays the one calibrated on the clean
// window: normal flows mostly pass and an attack wave mostly alarms.
TEST(ScoringService, AttackWaveRaisesAlarmRate) {
  Rng rng(8);
  const Matrix n_clean = gaussian(rng, 192, 5);
  std::vector<Matrix> batches;
  for (int b = 0; b < 4; ++b) batches.push_back(gaussian(rng, 48, 5));
  for (int b = 0; b < 4; ++b) {
    // Attack wave: large shift across several features.
    Matrix wave = gaussian(rng, 48, 5);
    for (std::size_t i = 0; i < wave.rows(); ++i)
      for (std::size_t j = 0; j < 3; ++j) wave(i, j) += 9.0;
    batches.push_back(std::move(wave));
  }
  serve::ScoringService svc(tiny_service(2));
  svc.bootstrap(n_clean);
  for (const Matrix& b : batches)
    while (!svc.try_submit(b)) std::this_thread::yield();
  svc.drain();
  svc.shutdown();

  std::size_t normal_alarms = 0, attack_alarms = 0;
  for (std::size_t b = 0; b < svc.results().size(); ++b)
    for (int v : svc.results()[b].verdicts)
      (b < 4 ? normal_alarms : attack_alarms) += static_cast<std::size_t>(v);
  EXPECT_LT(static_cast<double>(normal_alarms) / (4.0 * 48.0), 0.2);
  EXPECT_GT(static_cast<double>(attack_alarms) / (4.0 * 48.0), 0.6);
}

TEST(ScoringService, ScoresMatchTrainerWithoutAdaptation) {
  Rng rng(7);
  const Matrix n_clean = gaussian(rng, 96, 6);
  std::vector<Matrix> batches;
  for (int b = 0; b < 6; ++b) batches.push_back(gaussian(rng, 32, 6, 0.8));

  // Reference: the never-swapped detector, trained exactly like the
  // service's trainer and scoring the same batches directly.
  auto ref = core::make_detector("CND-IDS", tiny_cfg());
  Matrix seed_x;
  std::vector<int> seed_y;
  ref->setup(core::SetupContext{n_clean, seed_x, seed_y});
  ref->observe_experience(n_clean);
  std::vector<double> want;
  for (const Matrix& b : batches) {
    const auto s = ref->score(b);
    want.insert(want.end(), s.begin(), s.end());
  }

  expect_bits_equal(want, run_service(tiny_service(1), n_clean, batches));
  expect_bits_equal(want, run_service(tiny_service(3), n_clean, batches));
}

// Rows of splice_nonfinite's output that carry a NaN, +Inf and -Inf feature.
constexpr std::size_t kPoisonAt[] = {1, 9, 17};

/// `clean` with three poisoned rows spliced in at kPoisonAt: each is a copy
/// of the next clean row with feature k set to NaN, +Inf or -Inf.
Matrix splice_nonfinite(const Matrix& clean) {
  const double poison[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  Matrix out(clean.rows() + 3, clean.cols());
  for (std::size_t i = 0, src = 0, k = 0; i < out.rows(); ++i) {
    if (k < 3 && i == kPoisonAt[k]) {
      out.set_row(i, clean.row(src));
      out(i, k) = poison[k];
      ++k;
    } else {
      out.set_row(i, clean.row(src++));
    }
  }
  return out;
}

TEST(ScoringService, NonFiniteFlowsFailClosedAndLeaveFiniteScoresIntact) {
  Rng rng(12);
  const Matrix n_clean = gaussian(rng, 96, 6);
  const Matrix clean = gaussian(rng, 32, 6, 0.3);
  const Matrix poisoned = splice_nonfinite(clean);

  const obs::Counter& nonfinite = obs::metrics().counter("serve.nonfinite_total");
  const std::uint64_t before = nonfinite.value();
  serve::ScoringService svc(tiny_service(2));
  svc.bootstrap(n_clean);
  while (!svc.try_submit(poisoned)) std::this_thread::yield();
  svc.drain();
  svc.shutdown();
  EXPECT_EQ(nonfinite.value() - before, 3u);

  const std::vector<double> want = run_service(tiny_service(1), n_clean, {clean});
  const serve::BatchResult& got = svc.results().front();
  std::vector<double> finite_scores;
  for (std::size_t i = 0, k = 0; i < poisoned.rows(); ++i) {
    if (k < 3 && i == kPoisonAt[k]) {
      EXPECT_EQ(got.verdicts[i], 1) << "poisoned row " << i;
      ++k;
      continue;
    }
    finite_scores.push_back(got.scores[i]);
    EXPECT_EQ(got.verdicts[i], got.scores[i] > svc.threshold() ? 1 : 0);
  }
  expect_bits_equal(want, finite_scores);
}

// A non-finite flow inside an adaptation window is admitted and alarmed,
// and the round it falls into trains on the window's finite rows and
// publishes the next artifact version. A window with no finite row at all
// trains nothing, and its round still completes.
TEST(ScoringService, NonFiniteRowInsideAnAdaptationWindowStillPublishes) {
  Rng rng(13);
  const Matrix n_clean = gaussian(rng, 96, 6);
  serve::ScoringService svc(tiny_service(1, 64));
  svc.bootstrap(n_clean);
  Matrix first = gaussian(rng, 32, 6, 0.3);
  first(5, 2) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(svc.try_submit(first));
  EXPECT_TRUE(svc.try_submit(gaussian(rng, 32, 6, 0.3)));  // round 1 runs here
  svc.drain();
  EXPECT_EQ(svc.adaptations(), 1u);
  EXPECT_EQ(svc.artifact_version(), 2u);
  EXPECT_EQ(svc.results().front().verdicts[5], 1);

  const Matrix all_nan(64, 6, std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(svc.try_submit(all_nan));  // round 2: an empty training window
  svc.drain();
  svc.shutdown();
  EXPECT_EQ(svc.adaptations(), 2u);
  EXPECT_EQ(svc.artifact_version(), 3u);
  for (int v : svc.results().back().verdicts) EXPECT_EQ(v, 1);
}

// The rows of a window that carry a non-finite feature never reach the
// round's fit: a window with three of them spliced in trains the same model
// and calibrates the same threshold as the window without them. Both
// services cross the 64-flow boundary on their second batch.
TEST(ScoringService, NonFiniteRowsStayOutOfTheAdaptationWindow) {
  Rng rng(18);
  const Matrix n_clean = gaussian(rng, 96, 6);
  const Matrix first = gaussian(rng, 32, 6, 0.5);
  const Matrix second = gaussian(rng, 32, 6, 0.5);
  const Matrix third = gaussian(rng, 32, 6, 0.5);
  const auto published = [&](const Matrix& window_head) {
    serve::ScoringService svc(tiny_service(1, 64));
    svc.bootstrap(n_clean);
    for (const Matrix* b : {&window_head, &second, &third})
      EXPECT_TRUE(svc.try_submit(*b));
    svc.drain();
    svc.shutdown();
    EXPECT_EQ(svc.adaptations(), 1u);
    return svc.results().back().artifact;  // v2, published by the round
  };
  const auto want = published(first);
  const auto got = published(splice_nonfinite(first));
  EXPECT_EQ(want->version, 2u);
  EXPECT_EQ(got->version, 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want->threshold),
            std::bit_cast<std::uint64_t>(got->threshold));
  EXPECT_EQ(want->model_bytes, got->model_bytes);
}

TEST(ScoringService, ShardCountNeverChangesScoresUnderHotSwap) {
  Rng rng(8);
  const Matrix n_clean = gaussian(rng, 96, 6);
  std::vector<Matrix> batches;
  for (int b = 0; b < 10; ++b) batches.push_back(gaussian(rng, 32, 6, 0.5));

  // Adaptation every 96 admitted flows: several hot swaps mid-stream. The
  // drift-gated detector serves through the same rounds.
  for (const std::string name : {"CND-IDS", "Adaptive"}) {
    const auto one = run_service(tiny_service(1, 96, name), n_clean, batches);
    const auto four = run_service(tiny_service(4, 96, name), n_clean, batches);
    expect_bits_equal(one, four);
  }
}

TEST(ScoringService, AdaptationPublishesNewVersionsAndSwapsReplicas) {
  Rng rng(9);
  const Matrix n_clean = gaussian(rng, 96, 6);
  serve::ScoringService svc(tiny_service(2, 64));
  svc.bootstrap(n_clean);
  EXPECT_EQ(svc.artifact_version(), 1u);
  for (int b = 0; b < 8; ++b) {
    const Matrix batch = gaussian(rng, 32, 6, 0.3);
    while (!svc.try_submit(batch)) std::this_thread::yield();
  }
  svc.drain();
  svc.shutdown();
  EXPECT_EQ(svc.adaptations(), 4u);  // 256 flows / 64 per round
  EXPECT_EQ(svc.artifact_version(), 5u);
  // Batches carry versions v1..v4 (v5 is published after the last batch),
  // and loading each version some worker actually scores with is a swap.
  // Which shard pops which batch is timing, so only the single-worker floor
  // is guaranteed: one shard consuming everything swaps exactly 4 times.
  EXPECT_GE(svc.swaps(), 4u);
  EXPECT_EQ(svc.flows_admitted(), 256u);
  ASSERT_EQ(svc.results().size(), 8u);
  for (const auto& r : svc.results()) EXPECT_EQ(r.scores.size(), 32u);
}

// Hot-swap under sustained load: small queue, real backpressure, several
// adaptation rounds, four shards swapping replicas while scoring. The TSan
// CI job runs this binary; any producer/worker race surfaces here.
TEST(ScoringService, HotSwapUnderLoadIsRaceFree) {
  Rng rng(10);
  const Matrix n_clean = gaussian(rng, 96, 6);
  serve::ServiceConfig cfg = tiny_service(4, 128);
  cfg.queue_capacity = 2;
  serve::ScoringService svc(cfg);
  svc.bootstrap(n_clean);
  std::size_t rejected_retries = 0;
  for (int b = 0; b < 24; ++b) {
    const Matrix batch = gaussian(rng, 32, 6, 0.4);
    while (!svc.try_submit(batch)) {
      ++rejected_retries;
      std::this_thread::yield();
    }
  }
  svc.drain();
  svc.shutdown();
  EXPECT_EQ(svc.flows_admitted(), 24u * 32u);
  EXPECT_EQ(svc.rejected(), rejected_retries);
  EXPECT_EQ(svc.adaptations(), 6u);
  for (const auto& r : svc.results()) {
    ASSERT_EQ(r.scores.size(), 32u);
    ASSERT_EQ(r.verdicts.size(), 32u);
    EXPECT_EQ(r.input.rows(), 0u);  // released after scoring
  }
}

}  // namespace
}  // namespace cnd
