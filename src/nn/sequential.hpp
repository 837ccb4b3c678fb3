// Ordered container of layers with chained forward/backward.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace cnd::nn {

class Sequential final : public Layer {
 public:
  Sequential() = default;
  Sequential(const Sequential& o);
  Sequential& operator=(const Sequential& o);
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  void add(std::unique_ptr<Layer> layer);
  std::size_t depth() const { return layers_.size(); }

  void forward_into(const Matrix& x, Matrix& y, bool train) override;
  void backward_into(const Matrix& grad_out, Matrix& grad_in) override;
  std::vector<Param> params() override;
  std::unique_ptr<Layer> clone() const override;
  void zero_grad() override {
    for (auto& l : layers_) l->zero_grad();
  }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  // Ping-pong buffers for intermediate activations/gradients inside
  // forward_into/backward_into. Layer i writes scratch_[i % 2] while reading
  // the other slot, so shapes are stable across iterations at a fixed batch
  // size and the chain runs allocation-free after warm-up. Pure scratch:
  // deliberately not cloned/copied with the model.
  Matrix scratch_[2];
};

}  // namespace cnd::nn
