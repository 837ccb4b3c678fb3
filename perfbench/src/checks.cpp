#include "checks.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>

#include "serve/artifact.hpp"

namespace cnd::perfbench {

std::uint64_t verdict_failures(const serve::BatchResult& b) {
  const std::size_t rows = b.scores.size();
  if (b.verdicts.size() != rows) return std::max(rows, b.verdicts.size());
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < rows; ++i)
    if (b.verdicts[i] != (b.scores[i] > b.artifact->threshold ? 1 : 0)) ++bad;
  return bad;
}

std::vector<std::size_t> sample_batches(const std::deque<serve::BatchResult>& results,
                                        std::size_t max_strided) {
  std::vector<std::size_t> out;
  const std::size_t stride =
      std::max<std::size_t>(1, (results.size() + max_strided - 1) / std::max<std::size_t>(max_strided, 1));
  std::uint64_t last_version = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::uint64_t v = results[i].artifact->version;
    if (i % stride == 0 || v != last_version) out.push_back(i);
    last_version = v;
  }
  return out;
}

std::vector<ReferenceBatch> reference_scores(
    const std::deque<serve::BatchResult>& results, const std::vector<std::size_t>& sample,
    const serve::FlowRecordFile& file, const core::DetectorConfig& cfg) {
  std::map<std::uint64_t, std::unique_ptr<core::ContinualDetector>> replicas;
  std::vector<ReferenceBatch> refs;
  Matrix rows;
  for (std::size_t i : sample) {
    const serve::BatchResult& b = results[i];
    auto& replica = replicas[b.artifact->version];
    if (!replica) replica = serve::restore_replica(*b.artifact, cfg);
    const std::size_t lo = b.first_flow % file.rows();
    file.copy_rows_into(lo, lo + b.scores.size(), rows);
    ReferenceBatch r{i, {}};
    replica->score_into(rows, r.scores);
    refs.push_back(std::move(r));
  }
  return refs;
}

std::uint64_t replica_failures(const std::deque<serve::BatchResult>& results,
                               const std::vector<ReferenceBatch>& refs) {
  std::uint64_t bad = 0;
  for (const ReferenceBatch& r : refs) {
    const std::vector<double>& served = results[r.index].scores;
    const bool same = served.size() == r.scores.size() &&
                      std::memcmp(served.data(), r.scores.data(),
                                  served.size() * sizeof(double)) == 0;
    if (!same) bad += std::max(served.size(), r.scores.size());
  }
  return bad;
}

}  // namespace cnd::perfbench
