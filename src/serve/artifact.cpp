#include "serve/artifact.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/binary.hpp"
#include "tensor/assert.hpp"

namespace cnd::serve {

std::shared_ptr<const ServingArtifact> make_artifact(
    std::uint64_t version, const std::string& detector_name, double threshold,
    const core::ContinualDetector& det) {
  if (!det.supports_snapshot())
    throw std::logic_error("make_artifact: " + detector_name +
                           " does not support snapshots");
  auto a = std::make_shared<ServingArtifact>();
  a->version = version;
  a->detector = detector_name;
  a->threshold = threshold;
  std::ostringstream os(std::ios::binary);
  det.snapshot(os);
  // A copy, not std::move(os).str(): the stream's buffer keeps its growth
  // slack (a 39 KB snapshot sat in 64 KB), and a published artifact lives
  // as long as any batch or replica refers to it.
  a->model_bytes = os.str();
  return a;
}

std::unique_ptr<core::ContinualDetector> restore_replica(
    const ServingArtifact& a, const core::DetectorConfig& cfg) {
  auto det = core::make_detector(a.detector, cfg);
  std::istringstream is(a.model_bytes, std::ios::binary);
  det->restore(is);
  return det;
}

namespace {

// Envelope tag of an artifact file. Detector snapshots use small tags
// (io/detector_snapshot.cpp), so a bare snapshot never loads as an artifact.
constexpr std::uint64_t kTagArtifact = 0x41525446;  // "ARTF"

}  // namespace

void save_artifact(const std::string& path, const ServingArtifact& a) {
  std::ostringstream payload(std::ios::binary);
  io::write_u64(payload, a.version);
  io::write_string(payload, a.detector);
  io::write_f64(payload, a.threshold);
  io::write_string(payload, a.model_bytes);
  std::ofstream os(path, std::ios::binary);
  if (!os.good())
    throw std::runtime_error("save_artifact: cannot open " + path);
  io::write_envelope(os, kTagArtifact, payload.str());
  os.close();  // the last buffered bytes are written here, so check after it
  require(!os.fail(), "save_artifact: write failed for " + path);
}

ServingArtifact load_artifact(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good())
    throw std::runtime_error("load_artifact: cannot open " + path);
  std::istringstream payload(io::read_envelope(is, kTagArtifact, "ServingArtifact"),
                             std::ios::binary);
  ServingArtifact a;
  a.version = io::read_u64(payload);
  a.detector = io::read_string(payload);
  a.threshold = io::read_f64(payload);
  a.model_bytes = io::read_string(payload);
  return a;
}

}  // namespace cnd::serve
