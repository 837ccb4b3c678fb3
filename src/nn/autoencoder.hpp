// MLP autoencoder — the paper's CFE backbone ("4-layer MLP with 256 neurons
// in the hidden layers"): encoder d -> H -> latent, decoder latent -> H -> d.
//
// The encoder and decoder are exposed separately because the CND loss
// injects gradients at the latent (triplet + continual-learning terms) and
// at the reconstruction (L_R) simultaneously.
#pragma once

#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"

namespace cnd::nn {

struct AutoencoderConfig {
  std::size_t input_dim = 0;
  std::size_t hidden_dim = 256;  ///< paper default
  std::size_t latent_dim = 32;
};

class Autoencoder {
 public:
  Autoencoder() = default;
  Autoencoder(const AutoencoderConfig& cfg, Rng& rng);

  Matrix encode(const Matrix& x, bool train = false) { return encoder_.forward(x, train); }
  Matrix decode(const Matrix& h, bool train = false) { return decoder_.forward(h, train); }
  Matrix reconstruct(const Matrix& x, bool train = false) {
    return decode(encode(x, train), train);
  }

  Sequential& encoder() { return encoder_; }
  Sequential& decoder() { return decoder_; }

  /// Deep copy of the encoder (model snapshotting / serialization).
  Sequential encoder_copy() const { return encoder_; }

  /// Rebuild an inference-only autoencoder around a deserialized encoder.
  /// The decoder stays empty: restored models score, they never train.
  void restore_encoder(Sequential encoder, const AutoencoderConfig& cfg);

  /// Allocation-free encode through the encoder's forward_into chain;
  /// bit-identical to encode(x, /*train=*/false).
  void encode_into(const Matrix& x, Matrix& out) {
    encoder_.forward_into(x, out, /*train=*/false);
  }

  /// Encoder + decoder parameters, in a stable order.
  std::vector<Param> params();
  void zero_grad();

  const AutoencoderConfig& config() const { return cfg_; }
  bool initialized() const { return cfg_.input_dim != 0; }

 private:
  AutoencoderConfig cfg_;
  Sequential encoder_;
  Sequential decoder_;
};

}  // namespace cnd::nn
