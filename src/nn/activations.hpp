// Element-wise activation layers.
#pragma once

#include "nn/layer.hpp"

namespace cnd::nn {

class ReLU final : public Layer {
 public:
  void forward_into(const Matrix& x, Matrix& y, bool train) override;
  void backward_into(const Matrix& grad_out, Matrix& grad_in) override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Matrix x_cache_;
};

class Tanh final : public Layer {
 public:
  void forward_into(const Matrix& x, Matrix& y, bool train) override;
  void backward_into(const Matrix& grad_out, Matrix& grad_in) override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Matrix y_cache_;
};

}  // namespace cnd::nn
