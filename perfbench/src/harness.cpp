#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <fcntl.h>
#include <stdexcept>
#include <sys/resource.h>
#include <unistd.h>

#include "data/flow_generator.hpp"
#include "serve/flow_record.hpp"
#include "workloads.hpp"

namespace cnd::perfbench {

void Outcome::note(const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  record.emplace_back(key, buf);
}

void Outcome::note(const std::string& key, const std::string& text) {
  std::string quoted = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  record.emplace_back(key, quoted + "\"");
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

void fsync_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot fsync " + path);
  }
  ::close(fd);
}

FlowStream make_flow_stream(std::uint64_t seed, std::size_t clean_rows,
                            std::size_t reference_rows, std::size_t flows,
                            bool shuffled, const std::string& path) {
  // The generator and its two profiles are the serving soak's (bench_serving):
  // normal traffic whose mean and covariance drift over the stream, and an
  // attack family that arrives in two waves.
  Rng model(kTrafficSeed);
  data::FlowGenerator gen(kFlowDim, 8, 0.6, model);
  const std::size_t normal = gen.add_profile("normal", 0.0, 1.0, 0.0, 0.3, 0.0, 0.0, 0.2, model);
  const std::size_t attack = gen.add_profile("attack", 6.0, 1.2, 6.0, 0.3, 0.5, 0.3, 0.2, model);
  Rng rng(seed);

  FlowStream s;
  s.clean = gen.sample(normal, clean_rows, 0.0, rng);
  if (reference_rows > 0) s.reference = gen.sample(normal, reference_rows, 0.0, rng);
  // 64 equal chunks; chunks 20-22 and 45-47 are the waves (9.4% attacks).
  constexpr std::size_t kChunks = 64;
  if (flows % kChunks != 0) throw std::invalid_argument("flows must be a multiple of 64");
  const std::size_t n = flows / kChunks;
  Matrix x;
  s.labels.reserve(flows);
  for (std::size_t c = 0; c < kChunks; ++c) {
    const bool wave = (c >= 20 && c < 23) || (c >= 45 && c < 48);
    const double phase = static_cast<double>(c) / static_cast<double>(kChunks);
    x.append_rows(gen.sample(wave ? attack : normal, n, phase, rng));
    s.labels.insert(s.labels.end(), n, wave ? 1 : 0);
  }
  if (shuffled) {
    const std::vector<std::size_t> order = rng.permutation(flows);
    x = x.take_rows(order);
    std::vector<int> labels(flows);
    for (std::size_t i = 0; i < flows; ++i) labels[i] = s.labels[order[i]];
    s.labels = std::move(labels);
  }
  serve::FlowRecordWriter writer(path, kFlowDim);
  writer.append(x);
  writer.close();
  fsync_file(path);
  return s;
}

}  // namespace cnd::perfbench
