// Continual Feature Extractor (paper §III-C).
//
// An MLP autoencoder trained per experience with the continual novelty
// detection loss
//     L_CND = L_CS + lambda_R * L_R + lambda_CL * L_CL
// where L_CS is the cluster-separation triplet loss on pseudo-labels,
// L_R the input reconstruction MSE, and L_CL a latent distillation term
// against a frozen snapshot of the encoder from every previous experience
// (no replay data is stored — only past model states).
#pragma once

#include <vector>

#include "data/replay_buffer.hpp"
#include "nn/autoencoder.hpp"
#include "nn/optimizer.hpp"
#include "tensor/rng.hpp"

namespace cnd::core {

/// How the CFE fights catastrophic forgetting.
///  - kSnapshots: the paper's L_CL — latent distillation against frozen
///    encoder snapshots from past experiences (stores models, no data).
///  - kReplay: rehearsal — a reservoir of past inputs is mixed into the
///    reconstruction objective (stores data, no past models). Provided as
///    the storage/accuracy trade-off the paper contrasts its choice against.
///  - kEwc: online Elastic Weight Consolidation — a Fisher-weighted
///    quadratic penalty anchors parameters important to past experiences
///    (stores one Fisher diagonal + one anchor, no data). The CL strategy
///    Kumar et al. applied to IDS, per the paper's related work.
enum class ClMode { kSnapshots, kReplay, kEwc };

struct CfeConfig {
  std::size_t hidden_dim = 256;  ///< paper: 256-unit hidden layers.
  std::size_t latent_dim = 256;  ///< over-complete latent ("256 neurons").
  /// paper: 0.1. 0 removes L_R from the loss (Table III "w/o L_R").
  double lambda_r = 0.1;
  /// paper: 0.1. 0 removes L_CL in every ClMode (Table III "w/o L_R and
  /// L_CL" sets both weights to 0).
  double lambda_cl = 0.1;
  std::size_t epochs = 10;
  std::size_t batch_size = 128;
  double lr = 1e-3;              ///< paper: Adam, 0.001.
  std::size_t kmeans_k = 0;      ///< 0 = elbow method (paper's choice).
  /// Table III's "w/o L_CS" switch; L_CS has no weight to set to 0.
  bool use_cs = true;
  /// Cap on encoder snapshots kept for L_CL (0 = keep all, as in the paper;
  /// a cap bounds memory for very long streams).
  std::size_t max_snapshots = 0;
  // Continual-learning mode (see ClMode).
  ClMode cl_mode = ClMode::kSnapshots;
  std::size_t replay_capacity = 512;   ///< kReplay: reservoir size (rows).
};

/// Per-experience training diagnostics.
struct CfeFitStats {
  double loss_cs = 0.0;
  double loss_r = 0.0;
  double loss_cl = 0.0;
  double loss_total = 0.0;
  std::size_t pseudo_k = 0;
  std::size_t pseudo_anomalous = 0;
};

class Cfe {
 public:
  explicit Cfe(const CfeConfig& cfg, std::uint64_t seed = 1234);

  /// Train on one experience's unlabeled stream (plus N_c for the
  /// pseudo-labels), then snapshot the encoder for future L_CL terms.
  /// Lazily initializes the autoencoder on the first call (the input width
  /// is only known then). Returns mean last-epoch loss components.
  CfeFitStats fit_experience(const Matrix& x_train, const Matrix& n_clean);

  /// Encode rows into the latent feature space.
  Matrix encode(const Matrix& x);

  /// Allocation-free encode into a caller-owned matrix; bit-identical to
  /// encode(). The serving replicas' scoring path.
  void encode_into(const Matrix& x, Matrix& out);

  /// Rebuild the scoring half from a deserialized encoder (the detector
  /// snapshot/restore path). The result is inference-only: encode() works,
  /// fit_experience() throws std::logic_error — training state (decoder,
  /// optimizer moments, L_CL snapshots) is deliberately not in a snapshot.
  void restore_encoder(nn::Sequential encoder, std::size_t input_dim);

  /// True when this CFE was rebuilt from a snapshot (inference-only).
  bool restored() const { return restored_; }

  std::size_t n_experiences_seen() const { return experiences_seen_; }
  std::size_t n_snapshots() const { return past_encoders_.size(); }
  const CfeConfig& config() const { return cfg_; }
  bool initialized() const { return ae_.initialized(); }
  std::size_t latent_dim() const { return cfg_.latent_dim; }

  std::size_t replay_rows_stored() const { return replay_.size(); }

  /// Read access to the trained autoencoder (serialization path).
  const nn::Autoencoder& autoencoder() const { return ae_; }

 private:
  void accumulate_fisher(const Matrix& x_train);

  CfeConfig cfg_;
  Rng rng_;
  nn::Autoencoder ae_;
  nn::Adam opt_;
  std::vector<nn::Sequential> past_encoders_;
  data::ReplayBuffer replay_;
  std::vector<Matrix> fisher_;      ///< kEwc: per-param Fisher diagonal.
  std::vector<Matrix> anchor_;      ///< kEwc: per-param consolidated weights.
  std::size_t experiences_seen_ = 0;
  bool restored_ = false;           ///< rebuilt from a snapshot: no training.
};

}  // namespace cnd::core
