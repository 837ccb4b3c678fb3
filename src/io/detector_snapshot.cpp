// Snapshot/restore of detector scoring state — the implementation of
// core::ContinualDetector's serving hot-swap contract for CndIds and
// AdaptiveCndIds, routed through the io::binary primitives.
//
// These are member functions of core:: classes defined in an io-layer TU on
// purpose: core cannot depend on io (layering), but a member function may
// be defined in any translation unit, and this one lives in cnd_io where
// the serialization primitives are. Consequence: the CndIds/AdaptiveCndIds
// vtables reference these symbols, so every binary linking cnd_core must
// also link cnd_io (see cnd_add_bench/cnd_add_example/cnd_add_test).
//
// A snapshot is model state only, never data — the same storage argument
// the paper makes for L_CL. For CndIds that is the CFE encoder plus the PCA
// moments; restored detectors are inference-only (Cfe::restore_encoder sets
// the restored flag, so a later fit_experience throws std::logic_error).
//
// Wire format (io::binary v2): each snapshot is a checksummed envelope —
// header, detector tag, payload length, payload bytes, FNV-1a-64 of the
// payload. The whole payload is buffered and verified before any member is
// touched, so a truncated or bit-flipped artifact throws from restore()
// without half-mutating the detector. The Adaptive payload nests the full
// inner CndIds envelope, so the inner state is independently checksummed.
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/adaptive_cnd_ids.hpp"
#include "core/cnd_ids.hpp"
#include "io/binary.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "tensor/assert.hpp"
#include "tensor/rng.hpp"

namespace cnd::core {

namespace {

// Detector tags on a snapshot envelope: restoring from the wrong
// detector's bytes must fail loudly, not mis-load.
constexpr std::uint64_t kTagCndIds = 1;
constexpr std::uint64_t kTagAdaptive = 2;

// Layer tags of a serialized encoder.
constexpr std::uint64_t kLinear = 1, kRelu = 2;

// Sequential does not expose its layer list, so the writer reconstructs the
// structure from the Param list (each Linear contributes a (W, b) pair) and
// assumes the canonical CFE encoder shape [Linear, ReLU]* Linear.
void write_sequential(std::ostream& os, nn::Sequential& net) {
  auto params = net.params();
  require(params.size() % 2 == 0 && !params.empty(),
          "write_sequential: unexpected parameter layout");
  const std::size_t n_linear = params.size() / 2;
  io::write_u64(os, 2 * n_linear - 1);  // layer count: Linear + interleaved ReLU
  for (std::size_t l = 0; l < n_linear; ++l) {
    io::write_u64(os, kLinear);
    io::write_matrix(os, *params[2 * l].value);      // W
    io::write_matrix(os, *params[2 * l + 1].value);  // b
    if (l + 1 < n_linear) io::write_u64(os, kRelu);
  }
}

nn::Sequential read_sequential(std::istream& is) {
  const std::uint64_t n_layers = io::read_u64(is);
  require(n_layers >= 1 && n_layers < 1024, "read_sequential: bad layer count");
  nn::Sequential net;
  Rng dummy(0);
  for (std::uint64_t l = 0; l < n_layers; ++l) {
    const std::uint64_t tag = io::read_u64(is);
    if (tag == kLinear) {
      Matrix w = io::read_matrix(is);
      Matrix b = io::read_matrix(is);
      auto lin = std::make_unique<nn::Linear>(w.rows(), w.cols(), dummy);
      lin->set_weights(w, b);
      net.add(std::move(lin));
    } else if (tag == kRelu) {
      net.add(std::make_unique<nn::ReLU>());
    } else {
      throw std::runtime_error("read_sequential: unknown layer tag");
    }
  }
  return net;
}

}  // namespace

void CndIds::snapshot(std::ostream& os) const {
  require(pca_.fitted(), "CndIds::snapshot: no experience observed yet");
  std::ostringstream payload(std::ios::binary);
  io::write_u64(payload, cfe_.autoencoder().config().input_dim);
  // encoder_copy() deep-clones, giving write_sequential the non-const
  // Sequential its params() walk needs without const_cast.
  nn::Sequential enc = cfe_.autoencoder().encoder_copy();
  write_sequential(payload, enc);
  io::write_vec(payload, pca_.center());
  io::write_matrix(payload, pca_.components());
  require(payload.good(), "CndIds::snapshot: payload write failed");
  io::write_envelope(os, kTagCndIds, payload.str());
  require(os.good(), "CndIds::snapshot: write failed");
}

void CndIds::restore(std::istream& is) {
  std::istringstream payload(io::read_envelope(is, kTagCndIds, "CndIds"),
                             std::ios::binary);
  const auto input_dim = static_cast<std::size_t>(io::read_u64(payload));
  nn::Sequential enc = read_sequential(payload);
  std::vector<double> mean = io::read_vec(payload);
  Matrix comps = io::read_matrix(payload);
  require(payload.good(), "CndIds::restore: truncated snapshot");
  cfe_.restore_encoder(std::move(enc), input_dim);
  pca_ = ml::Pca(std::move(mean), std::move(comps));
}

void AdaptiveCndIds::snapshot(std::ostream& os) const {
  std::ostringstream payload(std::ios::binary);
  detector_.snapshot(payload);
  io::write_f64(payload, ref_mean_);
  io::write_u64(payload, fitted_ ? 1 : 0);
  io::write_u64(payload, updates_);
  io::write_u64(payload, skips_);
  io::write_u64(payload, drift_signals_);
  const ml::PageHinkley::State ph = ph_.state();
  io::write_u64(payload, ph.n);
  io::write_f64(payload, ph.mean);
  io::write_f64(payload, ph.mt);
  io::write_f64(payload, ph.min_mt);
  require(payload.good(), "AdaptiveCndIds::snapshot: payload write failed");
  io::write_envelope(os, kTagAdaptive, payload.str());
  require(os.good(), "AdaptiveCndIds::snapshot: write failed");
}

void AdaptiveCndIds::restore(std::istream& is) {
  std::istringstream payload(io::read_envelope(is, kTagAdaptive, "Adaptive"),
                             std::ios::binary);
  detector_.restore(payload);
  ref_mean_ = io::read_f64(payload);
  fitted_ = io::read_u64(payload) == 1;
  updates_ = static_cast<std::size_t>(io::read_u64(payload));
  skips_ = static_cast<std::size_t>(io::read_u64(payload));
  drift_signals_ = static_cast<std::size_t>(io::read_u64(payload));
  ml::PageHinkley::State ph;
  ph.n = static_cast<std::size_t>(io::read_u64(payload));
  ph.mean = io::read_f64(payload);
  ph.mt = io::read_f64(payload);
  ph.min_mt = io::read_f64(payload);
  require(payload.good(), "AdaptiveCndIds::restore: truncated snapshot");
  ph_.set_state(ph);
}

}  // namespace cnd::core
