// Output checks of the serving workloads, shared with the self-test.
//
// Every admitted batch must carry one verdict per flow, each equal to
// `score > artifact threshold`. A sample of batches is scored again on a
// replica restored from the batch's own artifact; a batch whose served
// scores differ from that reference in any byte counts all of its flows as
// failed.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/detector_factory.hpp"
#include "serve/flow_record.hpp"
#include "serve/service.hpp"

namespace cnd::perfbench {

/// Flows of `b` with no verdict or a verdict that disagrees with its score.
std::uint64_t verdict_failures(const serve::BatchResult& b);

/// Reference scores for one sampled batch.
struct ReferenceBatch {
  std::size_t index = 0;  ///< position in ScoringService::results().
  std::vector<double> scores;
};

/// Batches to check: every `stride`-th batch plus the first batch scored
/// under each artifact version, so that every hot swap is covered.
std::vector<std::size_t> sample_batches(const std::deque<serve::BatchResult>& results,
                                        std::size_t max_strided);

/// Re-read each sampled batch's rows from `file` (row = first_flow modulo
/// the file length) and score them on a replica restored from the batch's
/// artifact. One replica is restored per artifact version.
std::vector<ReferenceBatch> reference_scores(
    const std::deque<serve::BatchResult>& results, const std::vector<std::size_t>& sample,
    const serve::FlowRecordFile& file, const core::DetectorConfig& cfg);

/// Flows of the sampled batches whose served scores differ from the
/// reference in any byte (a mismatch fails the whole batch).
std::uint64_t replica_failures(const std::deque<serve::BatchResult>& results,
                               const std::vector<ReferenceBatch>& refs);

}  // namespace cnd::perfbench
