// Fully connected layer: y = x W + b.
#pragma once

#include "nn/layer.hpp"

namespace cnd::nn {

class Linear final : public Layer {
 public:
  /// Kaiming-uniform initialization, suitable for the ReLU nets used here.
  Linear(std::size_t in, std::size_t out, Rng& rng);

  void forward_into(const Matrix& x, Matrix& y, bool train) override;
  void backward_into(const Matrix& grad_out, Matrix& grad_in) override;
  std::vector<Param> params() override;
  void zero_grad() override {
    gw_ *= 0.0;
    gb_ *= 0.0;
  }
  std::unique_ptr<Layer> clone() const override;

  std::size_t in_features() const { return w_.rows(); }
  std::size_t out_features() const { return w_.cols(); }

  const Matrix& weight() const { return w_; }
  const Matrix& bias() const { return b_; }

  /// Overwrite parameters (used when restoring serialized models).
  void set_weights(const Matrix& w, const Matrix& b);

 private:
  Matrix w_;   // in x out
  Matrix b_;   // 1 x out
  Matrix gw_;
  Matrix gb_;
  Matrix x_cache_;
};

}  // namespace cnd::nn
