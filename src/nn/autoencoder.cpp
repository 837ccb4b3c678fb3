#include "nn/autoencoder.hpp"

#include "tensor/assert.hpp"

namespace cnd::nn {

Autoencoder::Autoencoder(const AutoencoderConfig& cfg, Rng& rng) : cfg_(cfg) {
  require(cfg.input_dim > 0, "Autoencoder: input_dim must be > 0");
  require(cfg.hidden_dim > 0 && cfg.latent_dim > 0,
          "Autoencoder: hidden/latent dims must be > 0");
  encoder_.add(std::make_unique<Linear>(cfg.input_dim, cfg.hidden_dim, rng));
  encoder_.add(std::make_unique<ReLU>());
  encoder_.add(std::make_unique<Linear>(cfg.hidden_dim, cfg.latent_dim, rng));
  decoder_.add(std::make_unique<Linear>(cfg.latent_dim, cfg.hidden_dim, rng));
  decoder_.add(std::make_unique<ReLU>());
  decoder_.add(std::make_unique<Linear>(cfg.hidden_dim, cfg.input_dim, rng));
}

void Autoencoder::restore_encoder(Sequential encoder, const AutoencoderConfig& cfg) {
  require(cfg.input_dim > 0, "Autoencoder::restore_encoder: input_dim must be > 0");
  require(encoder.depth() > 0, "Autoencoder::restore_encoder: empty encoder");
  cfg_ = cfg;
  encoder_ = std::move(encoder);
  decoder_ = Sequential();
}

std::vector<Param> Autoencoder::params() {
  auto p = encoder_.params();
  auto d = decoder_.params();
  p.insert(p.end(), d.begin(), d.end());
  return p;
}

void Autoencoder::zero_grad() {
  encoder_.zero_grad();
  decoder_.zero_grad();
}

}  // namespace cnd::nn
