// Versioned scoring artifacts — the unit of hot-swap in the scoring
// service (docs/SERVING.md).
//
// An artifact freezes everything a shard needs to score flows: the registry
// name of the detector, its serialized snapshot (core snapshot/restore
// contract: model state only, never data), and the calibrated alarm
// threshold. Artifacts are immutable once published; replicas restored from
// the same artifact score byte-identically to each other and to the trainer
// that produced it, which is what makes the service's results independent
// of the shard count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/detector.hpp"
#include "core/detector_factory.hpp"

namespace cnd::serve {

struct ServingArtifact {
  std::uint64_t version = 0;   ///< monotone; bumped on every adaptation.
  std::string detector;        ///< registry name (core::make_detector).
  double threshold = 0.0;      ///< alarm level: verdict = score > threshold.
  std::string model_bytes;     ///< opaque detector snapshot stream.
};

/// Snapshot `det` into a fresh immutable artifact. Throws std::logic_error
/// when the detector does not support snapshots.
std::shared_ptr<const ServingArtifact> make_artifact(
    std::uint64_t version, const std::string& detector_name, double threshold,
    const core::ContinualDetector& det);

/// Build an inference-only replica: construct the artifact's detector
/// through the registry and restore the snapshot into it. `cfg` supplies
/// the non-serialized structural knobs and must match the trainer's.
std::unique_ptr<core::ContinualDetector> restore_replica(
    const ServingArtifact& a, const core::DetectorConfig& cfg = {});

/// Persist an artifact to / load one from a file. The whole artifact
/// (version, detector name, threshold, snapshot) is one checksummed
/// io::binary envelope, so a flipped byte anywhere in it — the threshold
/// included — makes load_artifact throw instead of mis-loading. The
/// `cnd snapshot` / `cnd restore` pair round-trips through these.
void save_artifact(const std::string& path, const ServingArtifact& a);
ServingArtifact load_artifact(const std::string& path);

}  // namespace cnd::serve
